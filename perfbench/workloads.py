"""The three workloads, each driven from this process as a closed loop.

- ``pipeline``: ``uplift`` -> ``climate`` -> ``analyze`` on hourly input,
  one command after the other, one pipeline at a time.
- ``cold_query``: one ``query`` process at a time over a prebuilt store;
  every query pays the store load again.
- ``endpoint``: one ``serve`` process and two keep-alive HTTP clients,
  each sending its next request when the previous answer arrived.

A workload returns a ``Result``: operation counts, end-to-end metrics
from untraced runs, or with ``trace`` the per-layer metrics of a traced
pass (spans recorded by ``tracing.py`` inside the children).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import socket
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Iterator, Optional

import gen
from checks import check_join_json, check_pipeline
from program import Program, report_failure
from tracing import Spans

CLIENTS = 2
SETUP_REPEATS = {"pipeline": 5, "cold_query": 3, "endpoint": 3}
# Percentiles tried for the tail, highest first; the first one with at
# least ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
SHAPES = (("join", 10), ("month", 30), ("topology", 55), ("bad", 5))
HEALTH_PROBES = 30

# The test machine (2 vCPUs) shares its host: within minutes its speed
# changes by up to a factor of two, and a command's time changes with it.
# Where commands run one at a time (pipeline, cold_query, and the
# endpoint's start-ups) the benchmark times a fixed job (``reference_s``)
# before and after each command and scales the command's time by
# REFERENCE_S / (mean of the two job times). These times are so given at
# one machine speed, at which the job takes REFERENCE_S (about its median
# on that machine). The endpoint's traffic is continuous and its latency
# mostly a 40 ms delayed-ACK timer, so its latency and throughput, and
# every peak RSS, are reported as measured.
REFERENCE_S = 0.25


@dataclass(frozen=True)
class Size:
    sites: int
    days: int
    hourly: bool


SIZES = {
    "full": {
        "pipeline": Size(sites=5, days=90, hourly=True),
        "cold_query": Size(sites=1, days=1000, hourly=False),
        "endpoint": Size(sites=5, days=365, hourly=False),
    },
    "tiny": {
        "pipeline": Size(sites=2, days=60, hourly=True),
        "cold_query": Size(sites=1, days=60, hourly=False),
        "endpoint": Size(sites=2, days=60, hourly=False),
    },
}


class BenchError(Exception):
    """The workload could not be set up; nothing was measured."""


@dataclass
class Context:
    program: Program
    work: Path
    out: Path
    seed: int
    seconds: float
    size: Size


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    # name -> (value, unit, samples)
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (value, unit, samples)

    def outcome(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 100.0, ordered[-1]


@dataclass(frozen=True)
class _Triple:
    subject: str
    predicate: str
    object: str


def reference_s() -> float:
    """Seconds for a fixed job of the kind of work the program does most:
    frozen-dataclass terms hashed into sets and dict indexes, decimal
    arithmetic and a sort by string keys."""
    start = time.perf_counter()
    triples: set[_Triple] = set()
    index: dict[str, list[_Triple]] = {}
    total = Decimal(0)
    for i in range(50000):
        triple = _Triple(f"http://example.org/s{i % 5000}", f"p{i % 7}", f"{i}.{i % 100:02d}")
        triples.add(triple)
        index.setdefault(triple.subject, []).append(triple)
        total += Decimal(triple.object)
    sorted(triples, key=lambda t: (t.subject, t.predicate, t.object))
    return time.perf_counter() - start


class Speed:
    """Scales command times to the machine speed at which the job takes REFERENCE_S."""

    def __init__(self) -> None:
        self.references = [reference_s()]

    def scaled(self, seconds: float) -> float:
        """``seconds`` of a command that just ended, at the fixed speed."""
        before = self.references[-1]
        self.references.append(reference_s())
        return seconds * 2 * REFERENCE_S / (before + self.references[-1])

    def note(self, setups: list[float], latencies: list[float]) -> str:
        return (
            f"times scaled to reference speed; reference job median "
            f"{statistics.median(self.references):.4f} s n={len(self.references)}; "
            f"as measured: setup_s {statistics.median(setups):.4f} s, "
            f"latency_p50_ms {statistics.median(latencies) * 1000:.4f} ms"
        )


def _problems(label: str, problems: list[str]) -> bool:
    for problem in problems[:5]:
        print(f"CHECK FAILED: {label}: {problem}", file=sys.stderr)
    return not problems


def _require(code: int, what: str) -> None:
    if code != 0:
        raise BenchError(f"{what} failed with exit code {code}")


# -- pipeline ----------------------------------------------------------------


def _pipeline_once(
    ctx: Context, inputs: gen.Inputs, out: Path, spans: Optional[Path] = None
) -> tuple[bool, float]:
    """One uplift -> climate -> analyze run into ``out``; (correct, seconds)."""
    steps = [
        ("uplift", ["uplift", str(inputs.energy_csv), "--out", str(out)]),
        ("climate", ["climate", str(inputs.climate_csv), "--out", str(out)]),
        (
            "analyze",
            ["analyze", str(out / "cossmic.ttl"), str(out / "climate.ttl"),
             "--out", str(out), "--datatype", "TMAX"],
        ),
    ]
    total = 0.0
    for name, args in steps:
        trace_file = None if spans is None else spans / f"spans_pipeline_{name}.json"
        code, seconds = ctx.program.run(args, spans=trace_file)
        total += seconds
        if code != 0:
            return False, total
    try:
        problems = check_pipeline(inputs, out)
    except (KeyError, TypeError) as exc:
        problems = [f"report malformed: {exc!r}"]
    return _problems("pipeline", problems), total


def pipeline(ctx: Context, trace: bool) -> Result:
    size = ctx.size
    inputs = gen.generate(ctx.work / "input", ctx.seed, size.sites, size.days, size.hourly)
    result = Result()
    if trace:
        ok, plain = _pipeline_once(ctx, inputs, ctx.work / "plain")
        result.outcome(ok)
        ok, traced = _pipeline_once(ctx, inputs, ctx.work / "traced", spans=ctx.out)
        result.outcome(ok)
        _layer_result(result, ctx.out, traced - plain)
        return result

    # Nothing is loaded ahead of a pipeline, so its set-up is what every
    # one of its commands pays first: interpreter start and imports.
    speed = Speed()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS["pipeline"]):
        code, seconds = ctx.program.run(["--help"])
        _require(code, "energykg --help")
        raw_setups.append(seconds)
        setups.append(speed.scaled(seconds))

    latencies, raw = [], []
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < ctx.seconds:
        ok, seconds = _pipeline_once(ctx, inputs, ctx.work / f"out{len(latencies)}")
        result.outcome(ok)
        raw.append(seconds)
        latencies.append(speed.scaled(seconds))

    _end_to_end(result, ctx, setups, latencies, sum(latencies))
    result.notes.append(speed.note(raw_setups, raw))
    result.notes.append(f"pipeline_s {result.metrics['latency_p50_ms'][0] / 1000:.4f} s n={len(latencies)}")
    return result


# -- cold query --------------------------------------------------------------

JOIN_QUERY = """\
BASE <http://jresearch.ucd.ie/climate-kg/>
PREFIX seas: <https://w3id.org/seas/>
PREFIX qudt: <http://qudt.org/1.1/schema/qudt#>
PREFIX prov: <http://www.w3.org/ns/prov#>
PREFIX sosa: <http://www.w3.org/ns/sosa/>

SELECT ?eval ?val ?maxTprt ?date
FROM <urn:x-arq:DefaultGraph>
FROM NAMED <graph/cossmic>
WHERE
{{
  ?obsv a <ca/class/Observation> ;
        <ca/property/sourceStation> <resource/station/GHCND:GME00102404> ;
        sosa:resultTime ?date ;
        sosa:hasResult/qudt:numericValue ?maxTprt ;
        sosa:hasResult/<ca/property/withDataType> <resource/datatype/TMAX> .
  GRAPH <graph/cossmic>
  {{
    <resource/cossmic/DE_KN_COSSMIC> <ca/property/retrieveWeatherFrom> <resource/station/GHCND:GME00102404>.
    <resource/cossmic/{device}> seas:evaluation ?eval.
    ?eval prov:generatedAtTime ?edate;
           seas:evaluatedValue/qudt:numericalValue ?val.
  }}

  FILTER (year(?date)=year(?edate) && month(?date)=month(?edate) && day(?date)=day(?edate))
}}
"""


def _build_store(
    ctx: Context, inputs: gen.Inputs, out: Path, spans: Optional[Path] = None
) -> tuple[list[str], float]:
    """``uplift`` + ``climate`` into ``out``: the store files and seconds."""
    total = 0.0
    for name, source in (("uplift", inputs.energy_csv), ("climate", inputs.climate_csv)):
        trace_file = None if spans is None else spans / f"spans_store_{name}.json"
        code, seconds = ctx.program.run([name, str(source), "--out", str(out)], spans=trace_file)
        _require(code, f"energykg {name}")
        total += seconds
    return [str(out / "cossmic.ttl"), str(out / "climate.ttl")], total


def _query_once(
    ctx: Context, inputs: gen.Inputs, store: list[str], device: str, spans: Optional[Path] = None
) -> tuple[bool, float]:
    query = ctx.work / f"join_{device}.rq"
    if not query.exists():
        query.write_text(JOIN_QUERY.format(device=device), encoding="utf-8")
    answer = ctx.work / "answer.json"
    trace_file = None if spans is None else spans / "spans_query.json"
    code, seconds = ctx.program.run(
        ["query", *store, str(query), "--format", "json"], stdout=answer, spans=trace_file
    )
    if code != 0:
        return False, seconds
    problems = check_join_json(inputs, device, answer.read_text(encoding="utf-8"))
    return _problems("cold_query", problems), seconds


def cold_query(ctx: Context, trace: bool) -> Result:
    size = ctx.size
    inputs = gen.generate(ctx.work / "input", ctx.seed, size.sites, size.days, size.hourly)
    devices = random.Random(ctx.seed)
    result = Result()
    if trace:
        device = devices.choice(inputs.devices)
        store, plain_setup = _build_store(ctx, inputs, ctx.work / "plain")
        ok, plain = _query_once(ctx, inputs, store, device)
        result.outcome(ok)
        store, traced_setup = _build_store(ctx, inputs, ctx.work / "traced", spans=ctx.out)
        ok, traced = _query_once(ctx, inputs, store, device, spans=ctx.out)
        result.outcome(ok)
        _layer_result(result, ctx.out, traced + traced_setup - plain - plain_setup)
        return result

    speed = Speed()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS["cold_query"]):
        store, seconds = _build_store(ctx, inputs, ctx.work / "store")
        raw_setups.append(seconds)
        setups.append(speed.scaled(seconds))

    latencies, raw = [], []
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < ctx.seconds:
        ok, seconds = _query_once(ctx, inputs, store, devices.choice(inputs.devices))
        result.outcome(ok)
        raw.append(seconds)
        latencies.append(speed.scaled(seconds))

    _end_to_end(result, ctx, setups, latencies, sum(latencies))
    result.notes.append(speed.note(raw_setups, raw))
    result.notes.append(f"query_s {result.metrics['latency_p50_ms'][0] / 1000:.4f} s n={len(latencies)}")
    return result


# -- endpoint ----------------------------------------------------------------

MONTH_QUERY = """\
PREFIX seas: <https://w3id.org/seas/>
PREFIX qudt: <http://qudt.org/1.1/schema/qudt#>
PREFIX prov: <http://www.w3.org/ns/prov#>

SELECT ?edate ?val
WHERE
{{
  GRAPH <http://jresearch.ucd.ie/climate-kg/graph/cossmic>
  {{
    <http://jresearch.ucd.ie/climate-kg/resource/cossmic/{device}> seas:evaluation ?eval .
    ?eval prov:generatedAtTime ?edate ;
          seas:evaluatedValue/qudt:numericalValue ?val .
  }}
  FILTER (year(?edate)={year} && month(?edate)={month})
}}
"""

TOPOLOGY_QUERY = """\
PREFIX seas: <https://w3id.org/seas/>

SELECT ?site ?device
WHERE
{
  GRAPH <http://jresearch.ucd.ie/climate-kg/graph/cossmic>
  {
    ?site seas:subSystemOf <http://jresearch.ucd.ie/climate-kg/resource/cossmic/DE_KN_COSSMIC> ;
          seas:producedElectricPower ?device .
  }
}
"""

BAD_QUERY = "SELEC ?site WHERE { ?site ?p ?o }"


@dataclass(frozen=True)
class Request:
    shape: str
    text: str
    status: int
    rows: int


def requests(inputs: gen.Inputs, seed: int, client: int) -> Iterator[Request]:
    """The endpoint mix one client replays; the same seed gives the same list."""
    rnd = random.Random(seed * 1009 + client)
    months: dict[tuple[int, int], int] = {}
    for day in inputs.days[1:]:
        months[(day.year, day.month)] = months.get((day.year, day.month), 0) + 1
    month_keys = sorted(months)
    # Each block of 20 requests holds the mix's exact shares in a seeded
    # order, so every run sends the same proportions.
    block = [name for name, weight in SHAPES for _ in range(weight // 5)]
    pv = sum(1 for d in inputs.devices if inputs.kind(d) == "pv")
    while True:
        rnd.shuffle(block)
        for shape in block:
            if shape == "join":
                device = rnd.choice(inputs.devices)
                yield Request(shape, JOIN_QUERY.format(device=device), 200, len(inputs.days) - 1)
            elif shape == "month":
                device = rnd.choice(inputs.devices)
                year, month = rnd.choice(month_keys)
                text = MONTH_QUERY.format(device=device, year=year, month=month)
                yield Request(shape, text, 200, months[(year, month)])
            elif shape == "topology":
                yield Request(shape, TOPOLOGY_QUERY, 200, pv)
            else:
                yield Request(shape, BAD_QUERY, 400, 0)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``energykg serve`` child on a free local port."""

    def __init__(self, ctx: Context, store: list[str], spans: Optional[Path] = None) -> None:
        self.program = ctx.program
        self.port = _free_port()
        start = time.perf_counter()
        self.proc = self.program.spawn(
            ["serve", *store, "--bind", f"127.0.0.1:{self.port}"], spans=spans
        )
        try:
            self._wait_healthy(timeout=120.0)
        except BaseException:
            self.program.stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                report_failure(self.proc, "energykg serve exited during start-up")
                raise BenchError(f"serve exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/health")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise BenchError("serve did not answer /health in time")

    def stop(self) -> None:
        code = self.program.interrupt(self.proc)
        if code != 0:
            report_failure(self.proc, f"energykg serve exited with {code}")
            raise BenchError(f"serve exited with {code} when stopped")


class Traffic:
    """Closed-loop keep-alive clients; records (shape, seconds) per answer."""

    def __init__(self, inputs: gen.Inputs, seed: int, port: int) -> None:
        self.inputs = inputs
        self.seed = seed
        self.port = port
        self.latencies: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.sent = [0] * CLIENTS
        self._digests: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def run(self, seconds: Optional[float] = None, counts: Optional[list[int]] = None) -> float:
        """Send for ``seconds``, or exactly ``counts[i]`` requests per client."""
        deadline = None if seconds is None else time.perf_counter() + seconds
        threads = [
            threading.Thread(
                target=self._client,
                args=(i, deadline, None if counts is None else counts[i]),
                daemon=True,
            )
            for i in range(CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    def _client(self, index: int, deadline: Optional[float], count: Optional[int]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        sent = 0
        try:
            for request in requests(self.inputs, self.seed, index):
                if count is not None and sent >= count:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                sent += 1
                start = time.perf_counter()
                try:
                    conn.request(
                        "POST", "/sparql", body=request.text.encode(),
                        headers={"Content-Type": "application/sparql-query"},
                    )
                    response = conn.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    print(f"CHECK FAILED: endpoint: {request.shape}: {exc!r}", file=sys.stderr)
                    conn.close()
                    self._record(request.shape, None)
                    continue
                seconds = time.perf_counter() - start
                ok = self._check(request, response.status, body)
                self._record(request.shape, seconds if ok else None)
        finally:
            conn.close()
            self.sent[index] = sent

    def _record(self, shape: str, seconds: Optional[float]) -> None:
        with self._lock:
            self.attempted += 1
            if seconds is None:
                self.failed += 1
            else:
                self.latencies.append((shape, seconds))

    def _check(self, request: Request, status: int, body: bytes) -> bool:
        if status != request.status:
            return _problems("endpoint", [f"{request.shape}: status {status}, want {request.status}"])
        if status != 200:
            return True
        digest = hashlib.sha256(body).digest()
        with self._lock:
            known = self._digests.get(request.text)
        if known is not None:
            return _problems(
                "endpoint",
                [] if known == digest else [f"{request.shape}: body differs from an earlier answer"],
            )
        try:
            rows = json.loads(body)["results"]["bindings"]
        except (ValueError, KeyError, TypeError) as exc:
            return _problems("endpoint", [f"{request.shape}: unreadable body: {exc!r}"])
        if len(rows) != request.rows:
            return _problems("endpoint", [f"{request.shape}: {len(rows)} rows, want {request.rows}"])
        with self._lock:
            self._digests.setdefault(request.text, digest)
        return True

    def p50_ms(self, shape: Optional[str] = None) -> float:
        values = [s for name, s in self.latencies if shape is None or name == shape]
        return statistics.median(values) * 1000 if values else 0.0


def _health_p50_ms(port: int, keep_alive: bool) -> float:
    """/health p50 on one persistent connection, or a new one per request."""
    samples = []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for _ in range(HEALTH_PROBES):
            start = time.perf_counter()
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
            samples.append(time.perf_counter() - start)
            if response.status != 200:
                raise BenchError(f"/health answered {response.status}")
            if not keep_alive:
                conn.close()
    finally:
        conn.close()
    return statistics.median(samples) * 1000


def _in_process_p50_ms(ctx: Context, store: list[str], traffic: Traffic) -> dict[str, float]:
    """parse_query + evaluate + to_results_json per shape, without HTTP."""
    sys.path.insert(0, str(ctx.program.src))
    from energykg.cli import load_store
    from energykg.config import load_config
    from energykg.errors import EnergyKgError
    from energykg.sparql import evaluate, parse_query, to_results_json

    ds = load_store(store, load_config(None, None, env={}))
    samples: dict[str, list[float]] = {}
    for client in range(CLIENTS):
        replay = requests(traffic.inputs, traffic.seed, client)
        for _ in range(traffic.sent[client]):
            request = next(replay)
            start = time.perf_counter()
            try:
                to_results_json(evaluate(ds, parse_query(request.text)))
            except EnergyKgError:
                pass
            samples.setdefault(request.shape, []).append(time.perf_counter() - start)
    return {shape: statistics.median(values) * 1000 for shape, values in samples.items()}


def endpoint(ctx: Context, trace: bool) -> Result:
    size = ctx.size
    inputs = gen.generate(ctx.work / "input", ctx.seed, size.sites, size.days, size.hourly)
    store, _ = _build_store(ctx, inputs, ctx.work / "store")
    result = Result()
    if trace:
        return _endpoint_traced(ctx, inputs, store, result)

    # Start-up is one command at a time, so it is scaled like the other
    # workloads' times; the traffic after it is not.
    speed = Speed()
    setups = []
    for repeat in range(SETUP_REPEATS["endpoint"]):
        server = Server(ctx, store)
        setups.append(speed.scaled(server.setup_s))
        if repeat < SETUP_REPEATS["endpoint"] - 1:
            server.stop()
    try:
        traffic = Traffic(inputs, ctx.seed, server.port)
        elapsed = traffic.run(seconds=ctx.seconds)
    finally:
        server.stop()
    result.attempted, result.failed = traffic.attempted, traffic.failed
    latencies = [s for _, s in traffic.latencies]
    _end_to_end(result, ctx, setups, latencies, elapsed)
    result.notes.append(
        f"setup_s scaled to reference speed; reference job median "
        f"{statistics.median(speed.references):.4f} s n={len(speed.references)}"
    )
    q, value = tail(latencies)
    result.notes.append(f"throughput_qps {result.metrics['throughput_ops'][0]:.4f} 1/s n={len(latencies)}")
    result.notes.append(f"latency_tail_ms {value * 1000:.4f} ms p{q:g} n={len(latencies)}")
    for shape, _ in SHAPES:
        count = sum(1 for name, _ in traffic.latencies if name == shape)
        result.notes.append(f"{shape}_p50_ms {traffic.p50_ms(shape):.4f} ms n={count}")
    return result


def _endpoint_traced(ctx: Context, inputs: gen.Inputs, store: list[str], result: Result) -> Result:
    server = Server(ctx, store)
    try:
        plain = Traffic(inputs, ctx.seed, server.port)
        plain_s = plain.run(seconds=max(1.0, ctx.seconds / 2))
        keep_alive = _health_p50_ms(server.port, keep_alive=True)
        fresh = _health_p50_ms(server.port, keep_alive=False)
    finally:
        server.stop()
    server = Server(ctx, store, spans=ctx.out / "spans_serve.json")
    try:
        traced = Traffic(inputs, ctx.seed, server.port)
        traced_s = traced.run(counts=plain.sent)
    finally:
        server.stop()
    for traffic in (plain, traced):
        result.attempted += traffic.attempted
        result.failed += traffic.failed

    _layer_result(result, ctx.out, traced_s - plain_s)
    result.add("endpoint.health_keepalive_ms", keep_alive, "ms", HEALTH_PROBES)
    result.add("endpoint.health_fresh_ms", fresh, "ms", HEALTH_PROBES)
    in_process = _in_process_p50_ms(ctx, store, plain)
    for shape, _ in SHAPES:
        overhead = plain.p50_ms(shape) - in_process[shape] if shape in in_process else 0.0
        result.add(f"endpoint.overhead_ms.{shape}", overhead, "ms")
    result.add("endpoint.join_p50_ms", plain.p50_ms("join"), "ms")
    result.add("endpoint.topology_p50_ms", plain.p50_ms("topology"), "ms")
    latencies = [s for _, s in plain.latencies]
    q, value = tail(latencies)
    result.add("endpoint.latency_tail_ms", value * 1000, "ms", len(latencies))
    result.notes.append(f"endpoint.latency_tail_ms is p{q:g} of {len(latencies)} answers")
    return result


# -- shared reporting --------------------------------------------------------


def _end_to_end(
    result: Result, ctx: Context, setups: list[float], latencies: list[float], busy_s: float
) -> None:
    completed = result.attempted - result.failed
    result.add("setup_s", statistics.median(setups), "s", len(setups))
    result.add("latency_p50_ms", statistics.median(latencies) * 1000, "ms", len(latencies))
    result.add("throughput_ops", completed / busy_s, "1/s", completed)
    result.add("peak_rss_mb", ctx.program.peak_rss_kb / 1024, "MB", ctx.program.processes)


def _layer_result(result: Result, spans_dir: Path, overhead_s: float) -> None:
    spans = Spans()
    for path in sorted(spans_dir.glob("spans_*.json")):
        spans.add_dump(json.loads(path.read_text(encoding="utf-8")))
    for name, (value, unit) in spans.layer_metrics().items():
        result.add(name, value, unit)
    result.add("trace_overhead_s", overhead_s, "s")


WORKLOADS = {"pipeline": pipeline, "cold_query": cold_query, "endpoint": endpoint}

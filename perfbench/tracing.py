"""In-memory spans around the energykg calls that cross a layer boundary.

The program is not changed: ``install`` replaces the module attributes
that callers look up (``energykg.cli.evaluate``, ``Dataset.match``, ...)
with wrappers that record one span per call. A span is
``(name, start_ns, end_ns, parent, run, size)``: ``parent`` is the index
of the enclosing span on the same thread (-1 for none) and ``size`` is a
work count such as quads minted or bytes written.

Spans of one request share a run id. A root span starts a new run,
unless its first argument after the dataset was returned by a span of an
earlier run: the endpoint parses a query on the handler thread and
evaluates it on a worker thread, and this joins the two.

Run as a script, it executes one traced CLI command and writes its spans
when the command ends, also when a server is stopped with SIGINT::

    python perfbench/tracing.py SPANS.json -- query a.ttl b.ttl q.rq
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Optional


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_first(args, kwargs, result) -> int:
    return len(args[0]) if args else 0


def _rows(args, kwargs, result) -> int:
    return len(result.rows)


def _init_quads(args, kwargs, result) -> int:
    # Callers pass a set of quads, or nothing (load_store).
    return len(args[1]) if len(args) > 1 else 0


def _none(args, kwargs, result) -> int:
    return 0


# (span name, module, attribute, work count). One wrapper per function is
# installed under every module name that callers look it up by.
WRAPPED: list[tuple[str, str, str, Callable]] = [
    ("cli.cmd_uplift", "energykg.cli", "cmd_uplift", _none),
    ("cli.cmd_climate", "energykg.cli", "cmd_climate", _none),
    ("cli.cmd_query", "energykg.cli", "cmd_query", _none),
    ("cli.cmd_serve", "energykg.cli", "cmd_serve", _none),
    ("cli.cmd_analyze", "energykg.cli", "cmd_analyze", _none),
    ("cli.load_store", "energykg.cli", "load_store", _len_result),
    ("uplift.read_energy_csv", "energykg.uplift", "read_energy_csv", _len_first),
    ("uplift.to_daily", "energykg.uplift", "to_daily", _none),
    ("uplift.topology_quads", "energykg.uplift", "topology_quads", _len_result),
    ("uplift.evaluation_quads", "energykg.uplift", "evaluation_quads", _len_result),
    ("climate.parse_noaa_csv", "energykg.climate", "parse_noaa_csv", _len_first),
    ("climate.observation_quads", "energykg.climate", "observation_quads", _len_result),
    ("turtle.serialize_turtle", "energykg.turtle", "serialize_turtle", _len_result),
    ("turtle.load_turtle", "energykg.turtle", "load_turtle", _none),
    ("turtle.parse_turtle", "energykg.turtle", "parse_turtle", _len_first),
    ("sparql.parse_query", "energykg.sparql", "parse_query", _none),
    ("sparql.evaluate", "energykg.sparql", "evaluate", _rows),
    ("sparql.to_results_json", "energykg.sparql", "to_results_json", _len_result),
    ("analysis.align", "energykg.analysis", "align", _none),
    ("analysis.climate_series", "energykg.analysis", "climate_series", _len_result),
    ("analysis.correlation_table", "energykg.analysis", "correlation_table", _none),
]

# Methods wrapped on the Dataset class itself.
WRAPPED_METHODS: list[tuple[str, str, Callable]] = [
    ("dataset.build", "__init__", _init_quads),
    ("dataset.match", "match", _len_result),
    ("dataset.freeze", "freeze", _none),
]

# Modules whose namespace may hold an imported copy of a wrapped function.
CALLER_MODULES = (
    "energykg.cli",
    "energykg.analysis",
    "energykg.endpoint",
    "energykg.turtle",
    "energykg.uplift",
    "energykg.climate",
    "energykg.sparql",
)

# A root span named here joins the run of the root span that returned its
# argument at the given position; results of the _LINKING names are
# remembered for that.
_LINKED = {"sparql.evaluate": 1, "sparql.to_results_json": 0}
_LINKING = {"sparql.parse_query", "sparql.evaluate"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._runs = 0
        self._run_of: dict[int, int] = {}

    def wrap(self, name: str, func: Callable, size: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        link_arg = _LINKED.get(name)
        links = name in _LINKING

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, run = stack[-1]
            else:
                parent = -1
                run = None
                if link_arg is not None:
                    linked = args[link_arg] if len(args) > link_arg else None
                    run = self._run_of.pop(id(linked), None)
                if run is None:
                    with self._lock:
                        run = self._runs
                        self._runs += 1
            with self._lock:
                index = len(self.spans)
                self.spans.append((name_id, 0, 0, parent, run, 0))
            stack.append((index, run))
            start = time.perf_counter_ns()
            returned = False
            try:
                result = func(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                count = size(args, kwargs, result) if returned else 0
                self.spans[index] = (name_id, start, end, parent, run, count)
                if links and returned and not stack:
                    self._run_of[id(result)] = run

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def install(tracer: Tracer) -> None:
    """Replace every wrapped attribute in every module that holds it."""
    modules = [importlib.import_module(name) for name in CALLER_MODULES]
    for span_name, home, attr, size in WRAPPED:
        original = getattr(importlib.import_module(home), attr)
        wrapper = tracer.wrap(span_name, original, size)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    from energykg.dataset import Dataset

    for span_name, attr, size in WRAPPED_METHODS:
        setattr(Dataset, attr, tracer.wrap(span_name, getattr(Dataset, attr), size))


# -- reading spans back ------------------------------------------------------


class Spans:
    """Totals, counts and self times per span name over one or more dumps."""

    def __init__(self) -> None:
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.size: dict[str, int] = {}
        # Work of spans by (parent name, name).
        self.child_size: dict[tuple[str, str], int] = {}

    def add_dump(self, payload: dict) -> None:
        names = payload["names"]
        spans = payload["spans"]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, run, count in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                key = (names[spans[parent][0]], names[name_id])
                self.child_size[key] = self.child_size.get(key, 0) + count
        for index, (name_id, start, end, parent, run, count) in enumerate(spans):
            name = names[name_id]
            duration = end - start
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns[index]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.size[name] = self.size.get(name, 0) + count

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, named after the program's modules."""
        sec = self.seconds
        calls = self.calls.get
        work = self.size.get
        parse_s = sec("turtle.parse_turtle")
        rows = work("sparql.evaluate", 0)
        evaluated_quads = self.child_size.get(("sparql.evaluate", "dataset.match"), 0)
        analyze_s = sec("cli.cmd_analyze")
        return {
            "uplift.read_csv_s": (sec("uplift.read_energy_csv"), "s"),
            "uplift.to_daily_s": (sec("uplift.to_daily"), "s"),
            "uplift.mint_s": (sec("uplift.topology_quads") + sec("uplift.evaluation_quads"), "s"),
            "uplift.quads": (work("uplift.topology_quads", 0) + work("uplift.evaluation_quads", 0), "count"),
            "climate.parse_s": (sec("climate.parse_noaa_csv"), "s"),
            "climate.mint_s": (sec("climate.observation_quads"), "s"),
            "turtle.serialize_s": (sec("turtle.serialize_turtle"), "s"),
            "turtle.bytes_written": (work("turtle.serialize_turtle", 0), "bytes"),
            "turtle.parse_s": (parse_s, "s"),
            "turtle.parse_mb_per_s": (work("turtle.parse_turtle", 0) / 1e6 / parse_s if parse_s else 0.0, "MB/s"),
            # Index build: Dataset(quads) in uplift/climate, and the adds
            # load_turtle makes after parsing.
            "dataset.build_s": (sec("dataset.build") + sec("turtle.load_turtle") - parse_s, "s"),
            "dataset.freeze_s": (sec("dataset.freeze"), "s"),
            "dataset.match_calls": (calls("dataset.match", 0), "count"),
            "dataset.match_s": (sec("dataset.match"), "s"),
            "dataset.match_quads": (work("dataset.match", 0), "count"),
            "sparql.parse_calls": (calls("sparql.parse_query", 0), "count"),
            "sparql.parse_s": (sec("sparql.parse_query"), "s"),
            "sparql.evaluate_calls": (calls("sparql.evaluate", 0), "count"),
            "sparql.evaluate_self_s": (self.self_ns.get("sparql.evaluate", 0) / 1e9, "s"),
            "sparql.rows_out": (rows, "count"),
            "sparql.quads_per_row": (evaluated_quads / rows if rows else 0.0, "ratio"),
            "sparql.results_s": (sec("sparql.to_results_json"), "s"),
            "sparql.results_bytes": (work("sparql.to_results_json", 0), "bytes"),
            "cli.load_store_s": (sec("cli.load_store"), "s"),
            "analysis.align_calls": (calls("analysis.align", 0), "count"),
            "analysis.climate_series_calls": (calls("analysis.climate_series", 0), "count"),
            "analysis.correlation_table_s": (sec("analysis.correlation_table"), "s"),
            # What cmd_analyze does besides the table and the load: the
            # second align pass that feeds the scatter files.
            "analysis.scatter_pass_s": (
                analyze_s - sec("analysis.correlation_table") - sec("cli.load_store")
                if analyze_s else 0.0,
                "s",
            ),
        }


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <energykg arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from energykg import cli

    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main())

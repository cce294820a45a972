"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria cover: golden topology reproduction, the verbatim day-join
query against the bundled fixture, randomized engine-versus-reference
equivalence, correlation correctness and invariances, a synthetic
end-to-end run, optional real-data reproduction (needs downloads),
endpoint determinism under concurrency, and query latency on a
million-quad store.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
import urllib.parse
import urllib.request
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest

import naive
import querygen
from conftest import DATA_DIR, STATION_ID

from energykg.analysis import pcc
from energykg.cli import cmd_analyze, cmd_climate, cmd_uplift
from energykg.climate import ClimateObservation, link_network_to_station, observation_quads
from energykg.config import load_config
from energykg.dataset import Dataset
from energykg.endpoint import EndpointConfig, EndpointServer
from energykg.headings import parse_heading
from energykg.namespaces import DEFAULT_BASE, device_resource, station_resource
from energykg.sparql import evaluate, parse_query
from energykg.terms import Iri
from energykg.turtle import parse_turtle, serialize_turtle
from energykg.uplift import (
    EnergyTable,
    evaluation_quads,
    mint_device_iri,
    read_energy_csv,
    to_daily,
    topology_quads,
)
from energykg.analysis import align


def _passed(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_criterion_1_topology_golden_reproduction():
    """Uplift of the three sample headings reproduces the golden graph exactly."""
    start = time.perf_counter()
    headings = [
        parse_heading("DE_KN_residential1_pv"),
        parse_heading("DE_KN_residential1_washing_machine"),
        parse_heading("DE_KN_residential1_grid_import"),
    ]
    quads = topology_quads(headings)
    from energykg.namespaces import cossmic_graph
    from energykg.terms import PrefixMap

    prefixes = PrefixMap(base=DEFAULT_BASE)
    prefixes.bind("", Iri(DEFAULT_BASE.value + "resource/cossmic/"))
    prefixes.bind("rdf", Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#"))
    prefixes.bind("seas", Iri("https://w3id.org/seas/"))
    text = serialize_turtle(Dataset(quads), cossmic_graph(), prefixes)
    reparsed, _ = parse_turtle(text)
    golden_text = (DATA_DIR / "cossmic_topology_golden.ttl").read_text()
    golden, _ = parse_turtle(golden_text)
    assert set(reparsed) == set(golden)
    assert {(q.subject, q.predicate, q.object) for q in quads} == set(golden)
    assert text == golden_text  # byte-identical serialization
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"topology golden reproduction ({elapsed:.3f}s)")


def test_criterion_2_verbatim_join_query_matches_reference(three_day_store, join_query_text):
    """The published join query runs verbatim and equals the naive evaluator."""
    query = parse_query(join_query_text)
    engine_rows = evaluate(three_day_store, query).rows
    reference_rows = naive.naive_evaluate(three_day_store, query)
    assert naive.row_multiset(engine_rows) == naive.row_multiset(reference_rows)
    assert len(engine_rows) == 3
    _passed("verbatim join query equals nested-loop reference (3 rows)")


def test_criterion_3_randomized_engine_oracle_suite():
    """>=200 random (dataset, query) pairs agree with the reference evaluator."""
    start = time.perf_counter()
    rnd = random.Random(20220501)
    cases = 0
    for _ in range(200):
        ds = querygen.random_dataset(rnd, max_quads=500)
        text = querygen.random_query_text(rnd, ds)
        query = parse_query(text)
        engine_rows = evaluate(ds, query).rows
        reference_rows = naive.naive_evaluate(ds, query)
        assert naive.row_multiset(engine_rows) == naive.row_multiset(reference_rows), text
        cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 200
    assert elapsed < 60.0
    _passed(f"randomized oracle suite: {cases} cases in {elapsed:.1f}s")


def test_criterion_4_pcc_against_formula_oracle():
    """1000 random vector pairs within 1e-12; exact at +/-1; invariances at 1e-9."""
    rnd = random.Random(8128)
    checked = 0
    while checked < 1000:
        n = rnd.randint(2, 500)
        x = [rnd.uniform(-100, 100) for _ in range(n)]
        y = [rnd.uniform(-100, 100) for _ in range(n)]
        mean_x = sum(x) / n
        mean_y = sum(y) / n
        sxx = sum((a - mean_x) ** 2 for a in x)
        syy = sum((b - mean_y) ** 2 for b in y)
        if sxx == 0 or syy == 0:
            continue
        expected = sum(
            (a - mean_x) * (b - mean_y) for a, b in zip(x, y)
        ) / math.sqrt(sxx * syy)
        assert abs(pcc(x, y) - expected) < 1e-12
        checked += 1

    xs = list(range(1, 8))
    assert pcc(xs, [2 * v + 3 for v in xs]) == 1.0
    assert pcc(xs, [-2 * v + 3 for v in xs]) == -1.0

    for _ in range(200):
        n = rnd.randint(3, 100)
        x = [rnd.uniform(-10, 10) for _ in range(n)]
        y = [rnd.uniform(-10, 10) for _ in range(n)]
        a = rnd.uniform(0.1, 20)
        b = rnd.uniform(-5, 5)
        base_value = pcc(x, y)
        assert abs(pcc([a * v + b for v in x], y) - base_value) < 1e-9
        assert abs(pcc([-a * v + b for v in x], y) + base_value) < 1e-9
    _passed("pcc: 1000 oracle cases at 1e-12, exact linear, invariances at 1e-9")


def _synthetic_csvs(tmp_path: Path) -> tuple[Path, Path]:
    rnd = random.Random(5)
    days = [datetime(2016, 4, 30, tzinfo=timezone.utc) + timedelta(days=i) for i in range(31)]
    tmax = [Decimal(rnd.randint(100, 250)) / 10 for _ in range(31)]
    linear = Decimal("100")  # cumulative counter for the linear device
    noisy = Decimal("100")
    energy_lines = ["utc_timestamp,DE_KN_residential1_pv,DE_KN_residential1_freezer"]
    climate_lines = ["station,date,datatype,value"]
    for i, day in enumerate(days):
        if i > 0:  # day 0 is the baseline reading only
            linear += Decimal("0.5") * tmax[i] + 3
            noisy += 5 + Decimal(rnd.randint(-100, 100)) / 100
        stamp = day.strftime("%Y-%m-%dT23:00:00Z")
        energy_lines.append(f"{stamp},{linear},{noisy}")
        if i > 0:
            climate_lines.append(f"{STATION_ID},{day.date().isoformat()},TMAX,{tmax[i]}")
    energy = tmp_path / "energy.csv"
    energy.write_text("\n".join(energy_lines) + "\n")
    climate = tmp_path / "climate.csv"
    climate.write_text("\n".join(climate_lines) + "\n")
    return energy, climate


def test_criterion_5_synthetic_end_to_end(tmp_path):
    """Linear device scores 1.00 at threshold 0.7; the noisy one is absent."""
    start = time.perf_counter()
    config = load_config(cli_overrides={"out": str(tmp_path / "out")})
    energy_csv, climate_csv = _synthetic_csvs(tmp_path)
    stores = [cmd_uplift(str(energy_csv), config), cmd_climate(str(climate_csv), config)]
    written = cmd_analyze(stores, config)
    report_path = next(p for p in written if p.endswith("report.json"))
    report = json.loads(Path(report_path).read_text())
    devices = {entry["device"]: entry for entry in report["entries"]}
    assert set(devices) == {"DE_KN_residential1_pv"}
    entry = devices["DE_KN_residential1_pv"]
    assert entry["n"] == 30
    assert abs(entry["pcc"] - 1.0) < 1e-9
    assert entry["pcc_display"] == "1.00"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(f"synthetic end-to-end: pv at 1.00, noise device excluded ({elapsed:.2f}s)")


@pytest.mark.skipif(
    "ENERGYKG_HOUSEHOLD_CSV" not in os.environ or "ENERGYKG_GHCND_CSV" not in os.environ,
    reason="needs downloaded household and GHCND CSVs "
    "(set ENERGYKG_HOUSEHOLD_CSV and ENERGYKG_GHCND_CSV)",
)
def test_criterion_6_real_data_reproduction(tmp_path):
    """Real-data coefficients match the published values within 0.05."""
    import csv as csv_module

    household_path = os.environ["ENERGYKG_HOUSEHOLD_CSV"]
    ghcnd_path = os.environ["ENERGYKG_GHCND_CSV"]
    wanted = ["DE_KN_industrial1_pv_1", "DE_KN_residential1_heat_pump"]

    with open(household_path, newline="", encoding="utf-8") as handle:
        reader = csv_module.reader(handle)
        header = next(reader)
        keep = [0] + [header.index(h) for h in wanted]
        lines = [",".join(header[i] for i in keep)]
        for row in reader:
            lines.append(",".join(row[i] for i in keep))
    table = to_daily(read_energy_csv("\n".join(lines) + "\n"))

    ds = Dataset()
    ds.add_all(topology_quads([parse_heading(h) for h in wanted]))
    ds.add_all(evaluation_quads(table))
    from energykg.climate import parse_noaa_csv

    observations = [
        obs for obs in parse_noaa_csv(Path(ghcnd_path).read_text()) if obs.datatype == "TMAX"
    ]
    ds.add_all(observation_quads(observations))
    station = station_resource(DEFAULT_BASE, observations[0].station_id)
    ds.add(link_network_to_station(device_resource(DEFAULT_BASE, "DE_KN_COSSMIC"), station))
    ds.freeze()

    published = {"DE_KN_industrial1_pv_1": 0.78, "DE_KN_residential1_heat_pump": -0.95}
    devices = [device_resource(DEFAULT_BASE, name) for name in published]
    for series in align(ds, devices, "TMAX", station):
        device_name = series.device.raw
        value = pcc(series.energy(), series.climate())
        assert abs(value - published[device_name]) < 0.05, (device_name, value)
    _passed("real-data coefficients within 0.05 of published values")


def test_criterion_7_endpoint_concurrent_determinism(three_day_store, join_query_text):
    """32 concurrent identical requests return byte-identical JSON; bad query 400."""
    from concurrent.futures import ThreadPoolExecutor

    start = time.perf_counter()
    with EndpointServer(EndpointConfig(port=0), three_day_store) as server:
        host, port = server.address
        url = f"http://{host}:{port}/sparql?query=" + urllib.parse.quote(join_query_text)

        def fetch(_):
            with urllib.request.urlopen(url) as response:
                return response.headers.get("Content-Type"), response.read()

        with ThreadPoolExecutor(max_workers=32) as pool:
            results = list(pool.map(fetch, range(32)))
        content_types = {ct for ct, _ in results}
        bodies = {body for _, body in results}
        assert content_types == {"application/sparql-results+json"}
        assert len(bodies) == 1
        assert len(json.loads(bodies.pop())["results"]["bindings"]) == 3

        bad = f"http://{host}:{port}/sparql?query=" + urllib.parse.quote("SELEC ?s")
        try:
            urllib.request.urlopen(bad)
            raise AssertionError("malformed query should not return 200")
        except urllib.error.HTTPError as error:
            assert error.code == 400
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(f"endpoint: 32 identical bodies, malformed 400 ({elapsed:.2f}s)")


def test_criterion_8_million_quad_store_latency():
    """Single-device day-join query answers in under 2 seconds at 1M quads."""
    start_day = datetime(2014, 1, 1, tzinfo=timezone.utc)
    days = [start_day + timedelta(days=i) for i in range(1000)]
    headings = [
        parse_heading(f"DE_KN_residential{site + 1}_pv_{device + 1}")
        for site in range(5)
        for device in range(40)
    ]
    readings = [Decimal(i % 40) for i in range(len(days))]
    evaluations = evaluation_quads(EnergyTable(days, {h.raw: readings for h in headings}))
    assert len(evaluations) == 1_000_000
    ds = Dataset(evaluations)
    ds.add_all(
        observation_quads(
            [ClimateObservation(STATION_ID, day, "TMAX", Decimal("20.5")) for day in days]
        )
    )
    ds.add_all(topology_quads(headings))
    ds.add(
        link_network_to_station(
            device_resource(DEFAULT_BASE, "DE_KN_COSSMIC"),
            station_resource(DEFAULT_BASE, STATION_ID),
        )
    )
    ds.freeze()

    device = mint_device_iri(headings[0])
    template = (DATA_DIR / "energy_tmax_join.rq").read_text()
    query_text = template.replace(
        "<resource/cossmic/DE_KN_industrial1_pv_1>", f"<{device.value}>"
    )
    query = parse_query(query_text)
    start = time.perf_counter()
    rows = evaluate(ds, query).rows
    elapsed = time.perf_counter() - start
    assert len(rows) == 1000
    assert elapsed < 2.0
    _passed(f"million-quad store: 1000-row join in {elapsed:.3f}s")

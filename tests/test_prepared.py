"""Prepared queries: planned once, then run any number of times, also by
two threads at once, with the answers of one-shot evaluation and of the
naive oracle."""

from __future__ import annotations

import hashlib
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest

import naive
import querygen
from conftest import STATION_ID
from stores import pipeline_store

from energykg.climate import ClimateObservation
from energykg.headings import parse_heading
from energykg.namespaces import DEFAULT_BASE, station_resource
from energykg.sparql import (
    QueryTimeout, evaluate, parse_query, prepare, to_results_json, to_results_tsv,
)
from energykg.uplift import EnergyTable

_COSSMIC = "http://jresearch.ucd.ie/climate-kg/graph/cossmic"
_RESOURCE = "http://jresearch.ucd.ie/climate-kg/resource/cossmic/"

# The endpoint benchmark's month and topology shapes, over the fixture's
# pv device and network.
MONTH_QUERY = f"""\
PREFIX seas: <https://w3id.org/seas/>
PREFIX qudt: <http://qudt.org/1.1/schema/qudt#>
PREFIX prov: <http://www.w3.org/ns/prov#>
SELECT ?edate ?val WHERE {{
  GRAPH <{_COSSMIC}> {{
    <{_RESOURCE}DE_KN_industrial1_pv_1> seas:evaluation ?eval .
    ?eval prov:generatedAtTime ?edate ;
          seas:evaluatedValue/qudt:numericalValue ?val .
  }}
  FILTER (year(?edate) = 2016 && month(?edate) = 5)
}}
"""
TOPOLOGY_QUERY = f"""\
PREFIX seas: <https://w3id.org/seas/>
SELECT ?site ?device WHERE {{
  GRAPH <{_COSSMIC}> {{
    ?site seas:subSystemOf <{_RESOURCE}DE_KN_COSSMIC> ;
          seas:producedElectricPower ?device .
  }}
}}
"""


def _three_runs(prepared) -> list[str]:
    """The JSON of three runs of one prepared query: one alone, then two
    from two threads that start together."""
    alone = to_results_json(prepared.run())
    together = threading.Barrier(2)

    def run(_):
        together.wait(timeout=10)
        return to_results_json(prepared.run(time.monotonic() + 60))

    with ThreadPoolExecutor(max_workers=2) as pool:
        return [alone, *pool.map(run, range(2))]


def _assert_prepared_matches(ds, text: str) -> int:
    """Check the prepared query's runs against one-shot evaluation and the
    oracle; the number of rows."""
    query = parse_query(text)
    prepared = prepare(ds, query)
    once = evaluate(ds, query)
    assert _three_runs(prepared) == [to_results_json(once)] * 3, text
    rows = prepared.run().rows
    assert naive.row_multiset(rows) == naive.row_multiset(naive.naive_evaluate(ds, query)), text
    return len(rows)


@pytest.mark.parametrize("shape", ["join", "month", "topology"])
def test_benchmark_shapes_prepared_once_and_run_three_times(
    three_day_store, join_query_text, shape
):
    text = {"join": join_query_text, "month": MONTH_QUERY, "topology": TOPOLOGY_QUERY}[shape]
    rows = {"join": 3, "month": 3, "topology": 1}[shape]
    assert _assert_prepared_matches(three_day_store, text) == rows


def test_generated_queries_prepared_once_and_run_three_times():
    rnd = random.Random(2701)
    with_rows = 0
    for _ in range(200):
        ds = querygen.random_dataset(rnd, max_quads=150)
        with_rows += bool(_assert_prepared_matches(ds, querygen.random_query_text(rnd, ds)))
    assert with_rows >= 15


def test_each_run_has_its_own_deadline(three_day_store, join_query_text):
    prepared = prepare(three_day_store, parse_query(join_query_text))
    with pytest.raises(QueryTimeout):
        prepared.run(time.monotonic() - 1)
    assert len(prepared.run(time.monotonic() + 60)) == 3


# The benchmark's join, month and topology texts (``perfbench/workloads.py``).
BENCHMARK_JOIN = """\
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
BENCHMARK_MONTH = """\
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
BENCHMARK_TOPOLOGY = """\
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


def _pinned_store():
    """Four devices on three sites read on 75 days from 2016-04-20, with a
    TMAX and a PRCP observation each day, every value of its own."""
    headings = [
        parse_heading(name)
        for name in (
            "DE_KN_industrial1_pv_1", "DE_KN_residential1_pv", "DE_KN_residential1_grid_import",
            "DE_KN_residential2_pv",
        )
    ]
    start = datetime(2016, 4, 20, tzinfo=timezone.utc)
    days = [start + timedelta(days=i) for i in range(75)]
    table = EnergyTable(
        days,
        {
            h.raw: [Decimal(100 * n + (i * 37 + n * 11) % 97) / 8 for i in range(len(days))]
            for n, h in enumerate(headings)
        },
    )
    observations = []
    for i, day in enumerate(days):
        tmax, prcp = Decimal((i * 53) % 301 - 50) / 10, Decimal((i * 29) % 71) / 10
        observations.append(ClimateObservation(STATION_ID, day, "TMAX", tmax))
        observations.append(ClimateObservation(STATION_ID, day, "PRCP", prcp))
    return pipeline_store(table, observations, station_resource(DEFAULT_BASE, STATION_ID), headings)


# SHA-256 of each answer, computed before the evaluator's date memos and the
# serializer's column paths, which must not change a byte.
_PINNED = {
    ("join", "json"): "9449b520db3efe747fa39b25f944e988d98f8927a2fa616e6a681995b3fea181",
    ("month", "json"): "90cb37e092e3a65c85b6a599373ff1fec649b7b7eb0043d02c86bb592c88e910",
    ("topology", "json"): "8aca727d86f93503f06387142ffb6175572fb8e8dfced95bfebd52535d6be1dd",
    ("join", "tsv"): "8c40d47b9a3b2d57e84afd2a470eaac5787405332e680bcb92c11684ffa5b1c4",
}


@pytest.mark.parametrize("shape, form", sorted(_PINNED))
def test_benchmark_answers_keep_their_pinned_bytes(shape, form):
    text = {
        "join": BENCHMARK_JOIN.format(device="DE_KN_residential1_pv"),
        "month": BENCHMARK_MONTH.format(device="DE_KN_residential2_pv", year=2016, month=5),
        "topology": BENCHMARK_TOPOLOGY,
    }[shape]
    seq = evaluate(_pinned_store(), parse_query(text))
    assert len(seq) == {"join": 75, "month": 31, "topology": 3}[shape]
    answer = (to_results_json if form == "json" else to_results_tsv)(seq)
    assert hashlib.sha256(answer.encode("utf-8")).hexdigest() == _PINNED[shape, form]

"""Prepared queries: planned once, then run any number of times, also by
two threads at once, with the answers of one-shot evaluation and of the
naive oracle."""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import naive
import querygen

from energykg.sparql import QueryTimeout, evaluate, parse_query, prepare, to_results_json

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

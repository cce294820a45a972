import random
import time

import pytest

from energykg.dataset import Dataset
from energykg.sparql import QueryTimeout, evaluate, parse_query
from energykg.sparql import evaluator
from energykg.sparql.ast import SelectQuery, Variable
from energykg.terms import Iri, Literal, Quad, XSD_DATETIME, XSD_DECIMAL, XSD_INTEGER

import naive
import querygen

EX = "http://example.org/"


def q(s, p, o, g=None):
    return Quad(Iri(EX + s), Iri(EX + p), o if not isinstance(o, str) else Iri(EX + o), g)


def rows_of(ds, text):
    return evaluate(ds, parse_query(text)).rows


def test_empty_store_empty_result():
    assert rows_of(Dataset(), "SELECT ?s WHERE { ?s ?p ?o }") == []


def test_single_pattern_binding():
    ds = Dataset([q("s1", "p", "o1"), q("s2", "p", "o2")])
    rows = rows_of(ds, f"SELECT ?s WHERE {{ ?s <{EX}p> <{EX}o1> }}")
    assert rows == [{"s": Iri(EX + "s1")}]


def test_join_on_shared_variable():
    ds = Dataset([q("s1", "p", "m"), q("m", "q", "o")])
    rows = rows_of(ds, f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?m . ?m <{EX}q> ?o }}")
    assert rows == [{"s": Iri(EX + "s1"), "o": Iri(EX + "o")}]


def test_repeated_variable_in_one_pattern():
    ds = Dataset([q("a", "p", "a"), q("a", "p", "b")])
    rows = rows_of(ds, f"SELECT ?x WHERE {{ ?x <{EX}p> ?x }}")
    assert rows == [{"x": Iri(EX + "a")}]


def test_sequence_path_equals_two_pattern_rewrite():
    ds = Dataset(
        [
            q("s", "p1", "m1"),
            q("s", "p1", "m2"),
            q("m1", "p2", Literal("1", XSD_INTEGER)),
            q("m2", "p2", Literal("1", XSD_INTEGER)),
        ]
    )
    path_rows = rows_of(ds, f"SELECT ?v WHERE {{ <{EX}s> <{EX}p1>/<{EX}p2> ?v }}")
    rewrite_rows = rows_of(
        ds, f"SELECT ?v WHERE {{ <{EX}s> <{EX}p1> ?mid . ?mid <{EX}p2> ?v }}"
    )
    assert len(path_rows) == 2  # one row per intermediate
    assert [r["v"] for r in path_rows] == [r["v"] for r in rewrite_rows]


def test_graph_scoping_is_strict(three_day_store):
    graph = "http://jresearch.ucd.ie/climate-kg/graph/cossmic"
    seas_evaluation = "https://w3id.org/seas/evaluation"
    outside = rows_of(three_day_store, f"SELECT ?d WHERE {{ ?d <{seas_evaluation}> ?e }}")
    assert outside == []
    inside = rows_of(
        three_day_store,
        f"SELECT ?d WHERE {{ GRAPH <{graph}> {{ ?d <{seas_evaluation}> ?e }} }}",
    )
    assert len(inside) == 3


def test_graph_block_requires_membership_in_named_set():
    g1 = querygen.NAMED_GRAPHS[0]
    ds = Dataset([q("s", "p", "o", g1)])
    visible = rows_of(ds, f"SELECT ?s WHERE {{ GRAPH <{g1.value}> {{ ?s ?p ?o }} }}")
    assert len(visible) == 1
    hidden = rows_of(
        ds,
        "SELECT ?s FROM <urn:x-arq:DefaultGraph> WHERE "
        f"{{ GRAPH <{g1.value}> {{ ?s ?p ?o }} }}",
    )
    assert hidden == []


def test_from_named_only_leaves_default_graph_empty():
    g1 = querygen.NAMED_GRAPHS[0]
    ds = Dataset([q("s", "p", "o"), q("s2", "p", "o2", g1)])
    rows = rows_of(ds, f"SELECT ?s FROM NAMED <{g1.value}> WHERE {{ ?s ?p ?o }}")
    assert rows == []
    scoped = rows_of(
        ds,
        f"SELECT ?s FROM NAMED <{g1.value}> WHERE {{ GRAPH <{g1.value}> {{ ?s ?p ?o }} }}",
    )
    assert len(scoped) == 1


def test_from_merges_graphs_as_triple_union():
    g1, g2 = querygen.NAMED_GRAPHS
    ds = Dataset([q("s", "p", "o", g1), q("s", "p", "o", g2), q("s", "p", "o2", g2)])
    rows = rows_of(
        ds,
        f"SELECT ?o FROM <{g1.value}> FROM <{g2.value}> WHERE {{ ?s ?p ?o }}",
    )
    assert len(rows) == 2  # the shared triple collapses


def test_limit_zero_and_prefix_property(three_day_store):
    base = "BASE <http://jresearch.ucd.ie/climate-kg/>\nPREFIX seas: <https://w3id.org/seas/>\n"
    body = "WHERE { GRAPH <graph/cossmic> { ?d seas:evaluation ?e } }"
    empty = rows_of(three_day_store, base + "SELECT ?e " + body + " LIMIT 0")
    assert empty == []
    unlimited = rows_of(three_day_store, base + "SELECT ?e " + body)
    for n in (1, 2, 3):
        cut = rows_of(three_day_store, base + f"SELECT ?e {body} LIMIT {n}")
        assert cut == unlimited[:n]


def test_filter_error_drops_only_bad_rows():
    ds = Dataset(
        [
            q("s1", "at", Literal("2016-05-01T00:00:00Z", XSD_DATETIME)),
            q("s2", "at", Literal("not a date")),
            q("s3", "at", Literal("2017-05-01T00:00:00Z", XSD_DATETIME)),
        ]
    )
    rows = rows_of(ds, f"SELECT ?s WHERE {{ ?s <{EX}at> ?t . FILTER (year(?t) = 2016) }}")
    assert rows == [{"s": Iri(EX + "s1")}]


def test_filter_false_beats_error_in_conjunction():
    ds = Dataset([q("s1", "at", Literal("plain"))])
    # Left conjunct errors (year of a string), right is false.
    rows = rows_of(
        ds,
        f"SELECT ?s WHERE {{ ?s <{EX}at> ?t . FILTER (year(?t) = 2016 && ?t = \"other\") }}",
    )
    assert rows == []


def test_numeric_equality_across_datatypes():
    ds = Dataset(
        [
            q("s1", "v", Literal("1.0", XSD_DECIMAL)),
            q("s2", "v", Literal("1", XSD_INTEGER)),
            q("s3", "v", Literal("2", XSD_INTEGER)),
        ]
    )
    rows = rows_of(ds, f"SELECT ?s WHERE {{ ?s <{EX}v> ?x . FILTER (?x = 1.0) }}")
    assert [r["s"].value for r in rows] == [EX + "s1", EX + "s2"]


def test_date_builtins():
    ds = Dataset(
        [
            q("late", "t", Literal("2016-05-01T23:59:00Z", XSD_DATETIME)),
            # The instant of "late", written with an offset.
            q("offset", "t", Literal("2016-05-02T01:59:00+02:00", XSD_DATETIME)),
            q("next", "t", Literal("2016-05-02T00:00:00Z", XSD_DATETIME)),
            q("string", "t", Literal("2016-05-01T23:59:00Z")),
        ]
    )
    # Components are read from the instant in UTC; a value that is not an
    # xsd:dateTime drops the row.
    rows = rows_of(
        ds,
        f"SELECT ?s WHERE {{ ?s <{EX}t> ?d . "
        "FILTER (year(?d) = 2016 && month(?d) = 5 && day(?d) = 1) }",
    )
    assert [r["s"].value for r in rows] == [EX + "late", EX + "offset"]


def test_deterministic_ordering_and_projection():
    ds = Dataset([q("b", "p", "o"), q("a", "p", "o"), q("c", "p", "o")])
    rows = rows_of(ds, "SELECT ?s WHERE { ?s ?p ?o }")
    assert [r["s"].value for r in rows] == [EX + "a", EX + "b", EX + "c"]


def test_three_day_fixture_join_rows(three_day_store, join_query_text):
    rows = evaluate(three_day_store, parse_query(join_query_text)).rows
    assert len(rows) == 3
    by_date = {r["date"].lexical[:10]: r for r in rows}
    assert by_date["2016-05-01"]["val"] == Literal("12.5", XSD_DECIMAL)
    assert by_date["2016-05-01"]["maxTprt"] == Literal("22.3", XSD_DECIMAL)
    assert by_date["2016-05-02"]["val"] == Literal("13.0", XSD_DECIMAL)
    assert by_date["2016-05-03"]["maxTprt"] == Literal("18.1", XSD_DECIMAL)
    assert all(r["eval"].value.endswith("Z") for r in rows)


def test_climate_subpattern_counts_match_observations(three_day_store):
    # One datatype-filtered row per matching observation in the default graph.
    text = """BASE <http://jresearch.ucd.ie/climate-kg/>
PREFIX sosa: <http://www.w3.org/ns/sosa/>
PREFIX qudt: <http://qudt.org/1.1/schema/qudt#>
SELECT ?date ?v WHERE {
  ?obsv a <ca/class/Observation> ;
        <ca/property/sourceStation> <resource/station/GHCND:GME00102404> ;
        sosa:resultTime ?date ;
        sosa:hasResult/qudt:numericValue ?v ;
        sosa:hasResult/<ca/property/withDataType> <resource/datatype/%s> .
}"""
    assert len(rows_of(three_day_store, text % "TMAX")) == 3
    assert len(rows_of(three_day_store, text % "PRCP")) == 3
    assert len(rows_of(three_day_store, text % "SNOW")) == 0


def test_three_day_fixture_matches_naive(three_day_store, join_query_text):
    query = parse_query(join_query_text)
    engine = evaluate(three_day_store, query).rows
    reference = naive.naive_evaluate(three_day_store, query)
    assert naive.row_multiset(engine) == naive.row_multiset(reference)


def test_randomized_oracle_equivalence_small():
    rnd = random.Random(7)
    for _ in range(40):
        ds = querygen.random_dataset(rnd, max_quads=120)
        text = querygen.random_query_text(rnd, ds)
        query = parse_query(text)
        engine = evaluate(ds, query).rows
        reference = naive.naive_evaluate(ds, query)
        assert naive.row_multiset(engine) == naive.row_multiset(reference), text


def test_deadline_stops_evaluation(three_day_store, join_query_text):
    query = parse_query(join_query_text)
    with pytest.raises(QueryTimeout):
        evaluate(three_day_store, query, deadline=time.monotonic() - 1)
    rows = evaluate(three_day_store, query, deadline=time.monotonic() + 60).rows
    assert rows == evaluate(three_day_store, query).rows
    assert len(rows) == 3
    # The loops check too: in full, this cross product takes seconds.
    ds = Dataset([q(f"s{i}", "p", "o") for i in range(80)])
    cross = parse_query("SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }")
    start = time.monotonic()
    with pytest.raises(QueryTimeout):
        evaluate(ds, cross, deadline=start + 0.1)
    assert time.monotonic() - start < 1.0


_BIG = 10_000


@pytest.fixture()
def counted_checks(monkeypatch):
    calls = []
    original = evaluator._Run.check

    def counting(run):
        calls.append(1)
        original(run)

    monkeypatch.setattr(evaluator._Run, "check", counting)
    return calls


def test_deadline_is_checked_while_one_row_scans_a_large_bucket(counted_checks):
    # One row, one 10,000-triple bucket, and no triple whose subject is its object.
    ds = Dataset([q(f"s{i}", "p", f"o{i}") for i in range(_BIG)]).freeze()
    assert rows_of(ds, f"SELECT ?x WHERE {{ ?x <{EX}p> ?x }}") == []
    assert len(counted_checks) >= _BIG // 256


def test_deadline_is_checked_while_a_hash_join_probes(counted_checks):
    run = evaluator._Run(Dataset().freeze(), frozenset(), None)
    left = [{"a": i} for i in range(_BIG)]
    assert evaluator._hash_join(left, [{"a": -1}], ["a"], run) == []
    assert len(counted_checks) >= _BIG // 256


def test_deadline_is_checked_while_a_filter_runs(counted_checks):
    run = evaluator._Run(Dataset().freeze(), frozenset(), None)
    rows = [{"a": i} for i in range(_BIG)]
    never = parse_query("SELECT ?a WHERE { ?a ?b ?c FILTER (?unbound = ?a) }").pattern.expression
    assert evaluator._kept(rows, [never], run) == []
    assert len(counted_checks) >= _BIG // 256


def test_day_join_parses_each_rows_instant_once_per_side(monkeypatch):
    # N readings in a named graph, at N / 2 hours of two days, joined by
    # year, month and day to N observations in the default graph, N / 2 at
    # midnight of each day.
    n = 40
    g = Iri(EX + "g")
    stamps = [f"2016-05-0{d}T{h:02d}:00:00Z" for d in (1, 2) for h in range(n // 2)]
    quads = [q(f"r{i}", "at", Literal(stamp, XSD_DATETIME), g) for i, stamp in enumerate(stamps)]
    midnights = [f"2016-05-0{1 + i % 2}T00:00:00Z" for i in range(n)]
    quads += [q(f"o{i}", "on", Literal(stamp, XSD_DATETIME)) for i, stamp in enumerate(midnights)]
    ds = Dataset(quads).freeze()
    query = parse_query(
        f"SELECT ?r ?o FROM <urn:x-arq:DefaultGraph> FROM NAMED <{EX}g> WHERE {{"
        f" ?o <{EX}on> ?u . GRAPH <{EX}g> {{ ?r <{EX}at> ?t }}"
        " FILTER (year(?t) = year(?u) && month(?t) = month(?u) && day(?t) = day(?u)) }"
    )
    calls = []
    original = evaluator.parse_datetime

    def counting(lexical):
        calls.append(lexical)
        return original(lexical)

    monkeypatch.setattr(evaluator, "parse_datetime", counting)
    rows = evaluate(ds, query).rows
    assert len(rows) == 2 * (n // 2) ** 2
    assert len(calls) <= 2 * n
    assert rows == naive.naive_evaluate(ds, query)


def test_constant_absent_from_store_gives_no_rows():
    ds = Dataset([q("s", "p", "o"), q("s", "p", Literal("x"))])
    for text in (
        f"SELECT ?s WHERE {{ ?s <{EX}p> <{EX}absent> }}",
        f"SELECT ?s WHERE {{ ?s <{EX}absent> ?o }}",
        f'SELECT ?s WHERE {{ ?s <{EX}p> "absent" }}',
        f"SELECT ?o WHERE {{ <{EX}absent> ?p ?o }}",
        f"SELECT ?s WHERE {{ ?s <{EX}p> ?o . ?o <{EX}p> <{EX}absent> }}",
        f"SELECT ?s FROM <{EX}absent> WHERE {{ ?s ?p ?o }}",
        f"SELECT ?s WHERE {{ GRAPH <{EX}absent> {{ ?s ?p ?o }} }}",
    ):
        assert rows_of(ds, text) == [], text


def test_worst_case_pattern_order_matches_naive():
    # Written least selective first: a 30-row scan, then a full scan crossed
    # with it; the one-row pattern comes fourth.
    quads = [q(f"s{i}", "type", "Common") for i in range(30)]
    quads += [q(f"s{i}", "value", Literal(str(i), XSD_INTEGER)) for i in range(30)]
    quads += [q("s7", "tag", "Rare"), q("s8", "tag", "Other")]
    ds = Dataset(quads)
    query = parse_query(
        f"SELECT ?s ?v WHERE {{ ?x <{EX}type> ?c . ?s ?p ?v . ?s <{EX}type> <{EX}Common> . "
        f"?s <{EX}tag> <{EX}Rare> . ?x <{EX}value> ?v }}"
    )
    rows = evaluate(ds, query).rows
    assert rows == naive.naive_evaluate(ds, query)
    assert rows == [{"s": Iri(EX + "s7"), "v": Literal("7", XSD_INTEGER)}]


def test_bgp_starts_from_the_smallest_bucket(three_day_store, monkeypatch):
    plans = []
    original = evaluator._plan

    def recording(patterns, graphs):
        plans.append(original(patterns, graphs))
        return plans[-1]

    monkeypatch.setattr(evaluator, "_plan", recording)
    text = """BASE <http://jresearch.ucd.ie/climate-kg/>
PREFIX sosa: <http://www.w3.org/ns/sosa/>
PREFIX qudt: <http://qudt.org/1.1/schema/qudt#>
SELECT ?date ?v WHERE {
  ?obsv a <ca/class/Observation> ;
        sosa:resultTime ?date ;
        sosa:hasResult/qudt:numericValue ?v ;
        sosa:hasResult/<ca/property/withDataType> <resource/datatype/TMAX> .
}"""
    assert len(rows_of(three_day_store, text)) == 3
    tmax = three_day_store.id_of(Iri("http://jresearch.ucd.ie/climate-kg/resource/datatype/TMAX"))
    (plan,) = plans
    assert plan[0][2] == tmax
    # Each later pattern shares a variable with an earlier one.
    for index, pattern in enumerate(plan[1:], 1):
        earlier = {x for tp in plan[:index] for x in tp if isinstance(x, str)}
        assert earlier & {x for x in pattern if isinstance(x, str)}


def test_multi_from_merge_with_duplicate_triples_matches_naive():
    g1, g2 = Iri(EX + "g1"), Iri(EX + "g2")
    ds = Dataset(
        [q("a", "p", "b", g1), q("a", "p", "b", g2), q("a", "p", "b"), q("c", "p", "d", g2)]
        + [q("b", "p", "e", g1), q("b", "p", "e", g2)]
    )
    for text in (
        f"SELECT ?s ?o FROM <{EX}g1> FROM <{EX}g2> WHERE {{ ?s <{EX}p> ?o }}",
        f"SELECT ?s ?o FROM <{EX}g1> FROM <{EX}g2> FROM <urn:x-arq:DefaultGraph> WHERE {{ ?s ?p ?o }}",
        f"SELECT ?s ?o FROM <{EX}g1> FROM <{EX}g2> WHERE {{ ?s <{EX}p> ?m . ?m <{EX}p> ?o }}",
    ):
        query = parse_query(text)
        rows = evaluate(ds, query).rows
        assert rows == naive.naive_evaluate(ds, query)
        assert len(rows) == len(naive.row_multiset(rows))  # each merged triple once
    assert len(rows_of(ds, f"SELECT ?s FROM <{EX}g1> FROM <{EX}g2> WHERE {{ ?s ?p ?o }}")) == 3


def test_unbound_projected_variable_matches_the_oracle():
    # The parser refuses such a projection, so the query is built directly.
    # A variable is unbound in every row or in none, so its sort value only
    # has to be one that every row shares and that decodes to no binding.
    ds = Dataset([q("b", "p", "o"), q("a", "p", "o"), q("c", "p", Literal(""))])
    parsed = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
    s, o = parsed.projection
    never = Variable("never")
    for projection in ((never, s), (s, never, o), (o, never)):
        query = SelectQuery(
            projection, parsed.pattern, parsed.base, parsed.prefixes, parsed.dataset_clauses,
            parsed.limit,
        )
        rows = evaluate(ds, query).rows
        assert rows == naive.naive_evaluate(ds, query)
        assert all("never" not in row for row in rows)
    assert [row["o"] for row in rows] == [Literal(""), Iri(EX + "o"), Iri(EX + "o")]

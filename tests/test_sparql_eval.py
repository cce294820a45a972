import random
import re
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from energykg.sparql import QueryTimeout, evaluate, parse_query
from energykg.sparql import evaluator
from energykg.sparql.ast import And, Filter, Graph, SelectQuery, Variable
from energykg.terms import (
    Iri, Literal, Quad, XSD_BOOLEAN, XSD_DATETIME, XSD_DECIMAL, XSD_INTEGER,
)

import naive
import querygen
from stores import quad_store

EX = "http://example.org/"


def q(s, p, o, g=None):
    return Quad(Iri(EX + s), Iri(EX + p), o if not isinstance(o, str) else Iri(EX + o), g)


def rows_of(ds, text):
    return evaluate(ds, parse_query(text)).rows


def test_empty_store_empty_result():
    assert rows_of(quad_store(), "SELECT ?s WHERE { ?s ?p ?o }") == []


def test_single_pattern_binding():
    ds = quad_store([q("s1", "p", "o1"), q("s2", "p", "o2")])
    rows = rows_of(ds, f"SELECT ?s WHERE {{ ?s <{EX}p> <{EX}o1> }}")
    assert rows == [{"s": Iri(EX + "s1")}]


def test_join_on_shared_variable():
    ds = quad_store([q("s1", "p", "m"), q("m", "q", "o")])
    rows = rows_of(ds, f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?m . ?m <{EX}q> ?o }}")
    assert rows == [{"s": Iri(EX + "s1"), "o": Iri(EX + "o")}]


def test_repeated_variable_in_one_pattern():
    ds = quad_store([q("a", "p", "a"), q("a", "p", "b")])
    rows = rows_of(ds, f"SELECT ?x WHERE {{ ?x <{EX}p> ?x }}")
    assert rows == [{"x": Iri(EX + "a")}]


def test_sequence_path_equals_two_pattern_rewrite():
    ds = quad_store(
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
    ds = quad_store([q("s", "p", "o", g1)])
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
    ds = quad_store([q("s", "p", "o"), q("s2", "p", "o2", g1)])
    rows = rows_of(ds, f"SELECT ?s FROM NAMED <{g1.value}> WHERE {{ ?s ?p ?o }}")
    assert rows == []
    scoped = rows_of(
        ds,
        f"SELECT ?s FROM NAMED <{g1.value}> WHERE {{ GRAPH <{g1.value}> {{ ?s ?p ?o }} }}",
    )
    assert len(scoped) == 1


def test_from_merges_graphs_as_triple_union():
    g1, g2 = querygen.NAMED_GRAPHS
    ds = quad_store([q("s", "p", "o", g1), q("s", "p", "o", g2), q("s", "p", "o2", g2)])
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
    ds = quad_store(
        [
            q("s1", "at", Literal("2016-05-01T00:00:00Z", XSD_DATETIME)),
            q("s2", "at", Literal("not a date")),
            q("s3", "at", Literal("2017-05-01T00:00:00Z", XSD_DATETIME)),
        ]
    )
    rows = rows_of(ds, f"SELECT ?s WHERE {{ ?s <{EX}at> ?t . FILTER (year(?t) = 2016) }}")
    assert rows == [{"s": Iri(EX + "s1")}]


def test_filter_false_beats_error_in_conjunction():
    ds = quad_store([q("s1", "at", Literal("plain"))])
    # Left conjunct errors (year of a string), right is false.
    rows = rows_of(
        ds,
        f"SELECT ?s WHERE {{ ?s <{EX}at> ?t . FILTER (year(?t) = 2016 && ?t = \"other\") }}",
    )
    assert rows == []


def test_numeric_equality_across_datatypes():
    ds = quad_store(
        [
            q("s1", "v", Literal("1.0", XSD_DECIMAL)),
            q("s2", "v", Literal("1", XSD_INTEGER)),
            q("s3", "v", Literal("2", XSD_INTEGER)),
        ]
    )
    rows = rows_of(ds, f"SELECT ?s WHERE {{ ?s <{EX}v> ?x . FILTER (?x = 1.0) }}")
    assert [r["s"].value for r in rows] == [EX + "s1", EX + "s2"]


def test_a_number_that_is_not_finite_is_an_expression_error():
    # Decimal reads these lexical forms, and comparing sNaN raises; each is
    # an error that drops the row, as in the oracle, in data and in the query.
    lexicals = ("1", "sNaN", "NaN", "Infinity", "-inf")
    ds = quad_store([q(f"s{i}", "v", Literal(x, XSD_DECIMAL)) for i, x in enumerate(lexicals)])
    one = Iri(EX + "s0")
    cases = [
        (
            f'SELECT ?s WHERE {{ ?s <{EX}v> ?v FILTER (?v = "{lexical}"^^<{XSD_DECIMAL.value}>) }}',
            [{"s": one}] if lexical == "1" else [],
        )
        for lexical in lexicals
    ]
    pairs = f"SELECT ?s ?t WHERE {{ ?s <{EX}v> ?v . ?t <{EX}v> ?w FILTER (?v = ?w) }}"
    cases.append((pairs, [{"s": one, "t": one}]))
    for text, expected in cases:
        query = parse_query(text)
        rows = evaluate(ds, query).rows
        assert rows == expected, text
        assert rows == naive.naive_evaluate(ds, query), text


def test_boolean_values_follow_the_spec():
    # SPARQL 1.1, 17.2.2: an xsd:boolean's effective boolean value is its
    # value, "1" true and "0" false, and an invalid lexical form is false.
    # 17.3, op:boolean-equal: = compares two booleans by value; a literal
    # of an invalid form equals only itself, and another term is an error.
    forms = ("true", "false", "1", "0", "yes")
    ds = quad_store([q(f"b_{form}", "v", Literal(form, XSD_BOOLEAN)) for form in forms])
    boolean = f"^^<{XSD_BOOLEAN.value}>"

    def subjects(*forms):
        return [{"s": Iri(EX + f"b_{form}")} for form in forms]

    for condition, expected in (
        ("?b", subjects("1", "true")),
        ("?b = true", subjects("1", "true")),
        ("true = ?b", subjects("1", "true")),
        ("?b = false", subjects("0", "false")),
        (f'?b = "1"{boolean}', subjects("1", "true")),
        (f'?b = "0"{boolean}', subjects("0", "false")),
        (f'?b = "yes"{boolean}', subjects("yes")),
        (f'?b = "yes"{boolean} && ?b', []),
    ):
        query = parse_query(f"SELECT ?s WHERE {{ ?s <{EX}v> ?b FILTER ({condition}) }}")
        assert evaluate(ds, query).rows == expected, condition
        assert naive.naive_evaluate(ds, query) == expected, condition
    pairs = [("0", "0"), ("0", "false"), ("1", "1"), ("1", "true"), ("false", "0")]
    pairs += [("false", "false"), ("true", "1"), ("true", "true"), ("yes", "yes")]
    expected = [{"s": Iri(EX + f"b_{a}"), "t": Iri(EX + f"b_{b}")} for a, b in pairs]
    query = parse_query(f"SELECT ?s ?t WHERE {{ ?s <{EX}v> ?b . ?t <{EX}v> ?c FILTER (?b = ?c) }}")
    assert evaluate(ds, query).rows == expected
    assert naive.naive_evaluate(ds, query) == expected


def test_the_value_of_an_equals_is_a_boolean():
    # SPARQL 1.1, 17.3: "=" gives an xsd:boolean, so op:boolean-equal
    # compares it with another boolean by value; with an IRI,
    # RDFterm-equal gives false; with a string literal, an error.
    ds = quad_store([q("s", "p", "s")])
    boolean = f"^^<{XSD_BOOLEAN.value}>"
    row = [{"s": Iri(EX + "s")}]
    for condition, expected in (
        ("(?s = ?o)", row),
        ("(?s = ?o) = true", row),
        ("true = (?s = ?o)", row),
        (f'(?s = ?o) = "1"{boolean}', row),
        ("(?s = ?o) = false", []),
        ("(?s = ?o) = (?s = ?s)", row),
        ("((?s = ?o) = ?s) = false", row),
        ('((?s = ?o) = "true") = false', []),
    ):
        query = parse_query(f"SELECT ?s WHERE {{ ?s <{EX}p> ?o FILTER ({condition}) }}")
        assert evaluate(ds, query).rows == expected, condition
        assert naive.naive_evaluate(ds, query) == expected, condition


def test_filter_over_a_bare_term_is_its_effective_boolean_value():
    date = Literal("2016-05-01T00:00:00Z", XSD_DATETIME)
    ds = quad_store([q("s1", "at", date), q("s2", "at", Literal("never")), q("s3", "at", "o")])
    every, none = [{"s": Iri(EX + f"s{i}")} for i in (1, 2, 3)], []
    boolean = f"^^<{XSD_BOOLEAN.value}>"
    for condition, expected in (
        ("0", none),
        ("2", every),
        ("0.0", none),
        ("1.5", every),
        ('""', none),
        ('"x"', every),
        ("true", every),
        ("false", none),
        (f'"1"{boolean}', every),
        (f'"no"{boolean}', none),
        # An IRI has no effective boolean value: an error drops every row.
        (f"<{EX}o>", none),
        # A date part is an integer, 2016 here; a string has no date part.
        ("year(?t)", every[:1]),
        # A plain string is true when it is not empty; an IRI errors.
        ("?t", [{"s": Iri(EX + "s2")}]),
    ):
        query = parse_query(f"SELECT ?s WHERE {{ ?s <{EX}at> ?t FILTER ({condition}) }}")
        assert evaluate(ds, query).rows == expected, condition
        assert naive.naive_evaluate(ds, query) == expected, condition


def test_a_date_part_equals_a_variable_and_a_constant_date():
    dated = [("2016-05-01T00:00:00Z", Literal("2016", XSD_INTEGER))]
    dated += [("2017-01-01T00:00:00Z", Literal("2017.0", XSD_DECIMAL))]
    dated += [("2016-05-02T00:00:00Z", Literal("2016"))]
    dated += [("2016-05-03T00:00:00Z", Literal("2017", XSD_INTEGER))]
    quads = [q("s4", "at", Literal("not a date")), q("s4", "n", Literal("2016", XSD_INTEGER))]
    for i, (instant, number) in enumerate(dated):
        quads += [q(f"s{i}", "at", Literal(instant, XSD_DATETIME)), q(f"s{i}", "n", number)]
    ds = quad_store(quads)
    everything = [{"s": Iri(EX + f"s{i}")} for i in range(5)]
    dt = f"^^<{XSD_DATETIME.value}>"
    for condition, expected in (
        # A number equal to the year, as an integer or a decimal; a string
        # and a value that is no date are errors.
        ("year(?t) = ?n", everything[:2]),
        ("?n = year(?t)", everything[:2]),
        # A date function of a constant: its value, or an error for a
        # constant that is no valid xsd:dateTime.
        (f'year("2016-05-01T00:00:00Z"{dt}) = 2016', everything),
        (f'month("2016-05-01T00:00:00Z"{dt}) = 6', []),
        (f'month("2016-05-01T00:00:00Z"{dt}) = month(?t)', [everything[i] for i in (0, 2, 3)]),
        ('year("2016-05-01T00:00:00Z") = 2016', []),
        (f'year("May 2016"{dt}) = 2016', []),
    ):
        query = parse_query(
            f"SELECT ?s WHERE {{ ?s <{EX}at> ?t ; <{EX}n> ?n FILTER ({condition}) }}"
        )
        assert evaluate(ds, query).rows == expected, condition
        assert naive.naive_evaluate(ds, query) == expected, condition


def test_default_graph_alias_inside_where_matches_the_oracle():
    # GRAPH on the alias reads the active default graph: the store's
    # default, or the FROM graphs.
    g1 = querygen.NAMED_GRAPHS[0]
    ds = quad_store([q("s1", "p", "o1"), q("s2", "p", "o2", g1)])
    alias = "GRAPH <urn:x-arq:DefaultGraph>"
    for text, expected in (
        (f"SELECT ?s WHERE {{ {alias} {{ ?s <{EX}p> ?o }} }}", ["s1"]),
        (f"SELECT ?s FROM <{g1.value}> WHERE {{ {alias} {{ ?s <{EX}p> ?o }} }}", ["s2"]),
        (f"SELECT ?s WHERE {{ {alias} {{ ?s <{EX}p> ?o }} FILTER (?o = <{EX}o1>) }}", ["s1"]),
        (f"SELECT ?s WHERE {{ {alias} {{ ?s <{EX}p> ?o }} FILTER (?o = <{EX}o2>) }}", []),
    ):
        query = parse_query(text)
        rows = [{"s": Iri(EX + name)} for name in expected]
        assert evaluate(ds, query).rows == rows, text
        assert naive.naive_evaluate(ds, query) == rows, text


def test_date_builtins():
    ds = quad_store(
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
    ds = quad_store([q("b", "p", "o"), q("a", "p", "o"), q("c", "p", "o")])
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


def test_oracle_judges_filters_over_a_graph_block_and_conjunct_chains():
    # The generator's groups that are one GRAPH block and a FILTER, and its
    # && chains, whose conjuncts a BGP's plan binds at different steps.
    rnd = random.Random(22)
    shapes = Counter()
    for _ in range(400):
        ds = querygen.random_dataset(rnd, max_quads=60)
        text = querygen.random_query_text(rnd, ds)
        query = parse_query(text)
        pattern = query.pattern
        if not isinstance(pattern, Filter):
            continue
        engine = evaluate(ds, query).rows
        reference = naive.naive_evaluate(ds, query)
        assert naive.row_multiset(engine) == naive.row_multiset(reference), text
        for shape, seen in (
            ("graph", isinstance(pattern.pattern, Graph)),
            ("chain", isinstance(pattern.expression, And)),
        ):
            shapes[shape] += seen
            # Answers with rows show that no conjunct was tested too early.
            shapes[shape + " with rows"] += seen and bool(engine)
    assert min(shapes.values()) >= 8, shapes


def test_oracle_judges_the_generators_rare_shapes():
    # Boolean data, GRAPH on the default-graph alias, bare terms and date
    # parts as conjuncts, a date part equated with a variable, a date
    # function of a constant, and a parenthesised conjunct.
    rnd = random.Random(30)
    shapes = Counter()
    for _ in range(300):
        ds = querygen.random_dataset(rnd, max_quads=60, rare=True)
        text = querygen.random_query_text(rnd, ds, rare=True)
        query = parse_query(text)
        engine = evaluate(ds, query).rows
        reference = naive.naive_evaluate(ds, query)
        assert naive.row_multiset(engine) == naive.row_multiset(reference), text
        found = re.search(r"FILTER \((.*)\)\n", text)
        conjuncts = found.group(1).split(" && ") if found else []
        for shape, seen in (
            ("alias", "GRAPH <urn:x-arq:DefaultGraph>" in text),
            ("bare", any("=" not in conjunct for conjunct in conjuncts)),
            ("part = variable", re.search(r"(year|month|day)\(\?\w+\) = \?", text) is not None),
            ("date of a constant", re.search(r'(year|month|day)\("', text) is not None),
            ("parenthesised", any(conjunct.startswith("(") for conjunct in conjuncts)),
        ):
            shapes[shape] += seen
            shapes[shape + " with rows"] += seen and bool(engine)
    # A date part seldom equals another variable of a random store's row;
    # test_a_date_part_equals_a_variable_and_a_constant_date has such rows.
    del shapes["part = variable with rows"]
    assert min(shapes.values()) >= 2, shapes
    assert min(shapes[shape] for shape in shapes if "rows" not in shape) >= 20, shapes


def test_deadline_stops_evaluation(three_day_store, join_query_text):
    query = parse_query(join_query_text)
    with pytest.raises(QueryTimeout):
        evaluate(three_day_store, query, deadline=time.monotonic() - 1)
    rows = evaluate(three_day_store, query, deadline=time.monotonic() + 60).rows
    assert rows == evaluate(three_day_store, query).rows
    assert len(rows) == 3
    # The loops check too: in full, this cross product takes seconds.
    ds = quad_store([q(f"s{i}", "p", "o") for i in range(80)])
    cross = parse_query("SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }")
    start = time.monotonic()
    with pytest.raises(QueryTimeout):
        evaluate(ds, cross, deadline=start + 0.1)
    assert time.monotonic() - start < 1.0


def test_deadline_is_checked_after_the_sort(monkeypatch):
    # The clock passes the deadline once the sort starts, which reads the
    # store's texts: the sorted rows are not handed on to be decoded or
    # serialized past the deadline.
    ds = quad_store([q(f"s{i}", "p", "o") for i in range(10)])
    query = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
    now = [0.0]
    monkeypatch.setattr(evaluator, "time", SimpleNamespace(monotonic=lambda: now[0]))
    texts = ds.texts

    def late_texts():
        now[0] = 2.0
        return texts()

    monkeypatch.setattr(ds, "texts", late_texts)
    with pytest.raises(QueryTimeout):
        evaluate(ds, query, 1.0)


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
    ds = quad_store([q(f"s{i}", "p", f"o{i}") for i in range(_BIG)])
    assert rows_of(ds, f"SELECT ?x WHERE {{ ?x <{EX}p> ?x }}") == []
    assert len(counted_checks) >= _BIG // 256


def test_deadline_is_checked_while_a_hash_join_probes(counted_checks):
    ds = quad_store()
    run, planner = evaluator._Run(ds, None), evaluator._Planner(ds, frozenset())
    left = [(i,) for i in range(_BIG)]
    _, rows = evaluator._hash_join(
        ({"a": 0}, lambda run: left), ({"a": 0}, lambda run: [(-1,)]), ["a"], planner
    )
    assert rows(run) == []
    assert len(counted_checks) >= _BIG // 256


def test_deadline_is_checked_while_a_filter_runs(counted_checks):
    ds = quad_store()
    run, planner = evaluator._Run(ds, None), evaluator._Planner(ds, frozenset())
    rows = [(i,) for i in range(_BIG)]
    never = parse_query("SELECT ?a WHERE { ?a ?b ?c FILTER (?unbound = ?a) }").pattern.expression
    assert evaluator._kept([never], {"a": 0}, planner)(rows, run) == []
    assert len(counted_checks) >= _BIG // 256


@pytest.fixture()
def stars(monkeypatch):
    """The patterns of each star that prepared queries extend rows by."""
    calls = []
    original = evaluator._extend_star

    def recording(star, *rest):
        calls.append(list(star))
        return original(star, *rest)

    monkeypatch.setattr(evaluator, "_extend_star", recording)
    return calls


def test_deadline_is_checked_while_a_star_scans_a_large_run(counted_checks, stars):
    # One subject holds 10,000 triples of one predicate, so its run repeats
    # a predicate and the star extends its row pattern by pattern, each
    # pattern's step checking the deadline as it scans.
    quads = [q("s", "p", f"o{i}") for i in range(_BIG)] + [q("s", "q", "a"), q("s", "r", "b")]
    quads += [q(f"t{i}", "r", "b") for i in range(_BIG)]
    ds = quad_store(quads)
    text = f"SELECT ?o WHERE {{ ?x <{EX}q> <{EX}a> . ?x <{EX}r> ?z . ?x <{EX}p> ?o }}"
    assert len(rows_of(ds, text)) == _BIG
    assert [len(star) for star in stars] == [2]
    assert len(counted_checks) >= _BIG // 256


def test_a_star_on_a_bound_subject_matches_the_oracle(stars):
    # Items of one kind with a name, an alias and a colour each; one item
    # has two colours, so its run repeats a predicate, and the aliases of
    # the even items are their names. Tags of many other subjects make the
    # colour red's object bucket larger than an item's run.
    quads = [q(f"t{i}", "tag", "red") for i in range(40)]
    for i in range(12):
        quads += [q(f"i{i}", "kind", "K"), q(f"i{i}", "colour", "red")]
        quads += [q(f"i{i}", "name", Literal(f"n{i}"))]
        quads += [q(f"i{i}", "alias", Literal(f"n{i - i % 2}"))]
    quads.append(q("i3", "colour", "blue"))
    ds = quad_store(quads)
    item = f"?i <{EX}kind> <{EX}K> ; <{EX}name> ?n"
    for text, count in (
        (f"SELECT ?i ?n ?c WHERE {{ {item} ; <{EX}colour> ?c }}", 13),
        # The alias pattern's object is bound by the name pattern, in the star.
        (f"SELECT ?i ?c WHERE {{ {item} ; <{EX}alias> ?n ; <{EX}colour> ?c }}", 6),
        # A colour bound before the star.
        (f"SELECT ?i ?n WHERE {{ <{EX}i3> <{EX}colour> ?c . {item} ; <{EX}colour> ?c }}", 13),
    ):
        query = parse_query(text)
        rows = evaluate(ds, query).rows
        assert len(rows) == count, text
        assert rows == naive.naive_evaluate(ds, query), text
    assert [len(star) for star in stars] == [2, 3, 2]


@pytest.fixture()
def counted_parses(monkeypatch):
    calls = []
    original = evaluator.parse_datetime

    def counting(lexical):
        calls.append(lexical)
        return original(lexical)

    monkeypatch.setattr(evaluator, "parse_datetime", counting)
    return calls


_DAY_JOIN = (
    f"SELECT ?r ?o FROM <urn:x-arq:DefaultGraph> FROM NAMED <{EX}g> WHERE {{"
    f" ?o <{EX}on> ?u . GRAPH <{EX}g> {{ ?r <{EX}at> ?t }}"
    " FILTER (year(?t) = year(?u) && month(?t) = month(?u) && day(?t) = day(?u)) }"
)


def test_day_join_parses_each_rows_instant_once_per_side(counted_parses):
    # N readings in a named graph, at N / 2 hours of two days, joined by
    # year, month and day to N observations in the default graph, N / 2 at
    # midnight of each day.
    n = 40
    g = Iri(EX + "g")
    stamps = [f"2016-05-0{d}T{h:02d}:00:00Z" for d in (1, 2) for h in range(n // 2)]
    quads = [q(f"r{i}", "at", Literal(stamp, XSD_DATETIME), g) for i, stamp in enumerate(stamps)]
    midnights = [f"2016-05-0{1 + i % 2}T00:00:00Z" for i in range(n)]
    quads += [q(f"o{i}", "on", Literal(stamp, XSD_DATETIME)) for i, stamp in enumerate(midnights)]
    ds = quad_store(quads)
    query = parse_query(_DAY_JOIN)
    rows = evaluate(ds, query).rows
    assert len(rows) == 2 * (n // 2) ** 2
    assert len(counted_parses) <= 2 * n
    assert rows == naive.naive_evaluate(ds, query)


def test_join_keys_that_group_differently_on_each_side_match_the_oracle():
    # One side's keys take three parts of one variable, the other's take
    # parts of two variables in turn, so their keys line up by position.
    g = Iri(EX + "g")
    stamps = [f"2016-0{month}-0{day}T12:00:00Z" for month in (5, 6) for day in (1, 2)]
    quads = [q(f"r{i}", "at", Literal(stamp, XSD_DATETIME), g) for i, stamp in enumerate(stamps)]
    for i, u in enumerate(stamps):
        for j, v in enumerate(stamps):
            quads += [
                q(f"o{i}{j}", "on", Literal(u, XSD_DATETIME)),
                q(f"o{i}{j}", "in", Literal(v, XSD_DATETIME)),
            ]
    ds = quad_store(quads)
    query = parse_query(
        f"SELECT ?r ?o FROM <urn:x-arq:DefaultGraph> FROM NAMED <{EX}g> WHERE {{"
        f" ?o <{EX}on> ?u ; <{EX}in> ?v . GRAPH <{EX}g> {{ ?r <{EX}at> ?t }}"
        " FILTER (year(?u) = year(?t) && month(?v) = month(?t) && day(?u) = day(?t)) }"
    )
    rows = evaluate(ds, query).rows
    # Each reading meets two days of ?u and two months of ?v.
    assert len(rows) == 4 * 4
    assert rows == naive.naive_evaluate(ds, query)


def test_day_join_parses_each_date_ids_instant_once_per_side(counted_parses):
    # N devices read at noon of the same D days, in a named graph, joined by
    # year, month and day to one observation at midnight of each day: N * D
    # rows on one side, D on the other, over D date ids on each.
    devices, days = 8, 5
    g = Iri(EX + "g")
    noons = [Literal(f"2016-05-0{d}T12:00:00Z", XSD_DATETIME) for d in range(1, days + 1)]
    quads = [q(f"r{i}_{d}", "at", noon, g) for i in range(devices) for d, noon in enumerate(noons)]
    quads += [
        q(f"o{d}", "on", Literal(f"2016-05-0{d}T00:00:00Z", XSD_DATETIME))
        for d in range(1, days + 1)
    ]
    ds = quad_store(quads)
    query = parse_query(_DAY_JOIN)
    rows = evaluate(ds, query).rows
    assert len(rows) == devices * days
    assert sorted(counted_parses) == sorted(
        f"2016-05-0{d}T{hour}:00:00Z" for d in range(1, days + 1) for hour in ("00", "12")
    )
    assert rows == naive.naive_evaluate(ds, query)


def test_month_filter_parses_each_date_ids_instant_once(counted_parses):
    # Three devices read on the same 20 days: 60 rows over 20 date ids, each
    # read by both date functions.
    stamps = [f"2016-0{m}-{d:02d}T00:00:00Z" for m in (4, 5) for d in range(1, 11)]
    quads = [
        q(f"{device}{i}", "at", Literal(stamp, XSD_DATETIME))
        for device in "abc"
        for i, stamp in enumerate(stamps)
    ]
    ds = quad_store(quads)
    query = parse_query(
        f"SELECT ?r ?t WHERE {{ ?r <{EX}at> ?t FILTER (year(?t) = 2016 && month(?t) = 5) }}"
    )
    rows = evaluate(ds, query).rows
    assert len(rows) == 30
    assert sorted(counted_parses) == sorted(stamps)
    assert rows == naive.naive_evaluate(ds, query)


def test_instants_are_parsed_once_per_store_not_per_evaluation(counted_parses):
    # Ten readings a day on three days: a date function of any object
    # parses each of the three date texts once, over two evaluations of
    # the store, and the store's memo keeps only those three.
    stamps = [f"2016-05-0{d}T00:00:00Z" for d in (1, 2, 3)]
    quads = [
        q(f"r{d}_{i}", "at", Literal(stamp, XSD_DATETIME))
        for d, stamp in enumerate(stamps)
        for i in range(10)
    ]
    quads += [q(f"r0_{i}", "tag", Literal(f"t{i}")) for i in range(10)]
    ds = quad_store(quads)
    query = parse_query("SELECT ?r WHERE { ?r ?p ?t FILTER (month(?t) = 5) }")
    for _ in range(2):
        assert len(evaluate(ds, query).rows) == 30
    assert sorted(counted_parses) == stamps
    assert len(evaluator._instants(ds)) == 3
    # Another store parses its own.
    assert len(evaluate(quad_store(quads), query).rows) == 30
    assert len(counted_parses) == 6


@pytest.mark.parametrize("graph", [None, Iri(EX + "g")])
def test_filter_conjuncts_prune_the_rows_that_later_steps_extend(monkeypatch, graph):
    # The endpoint's month query: one device read on 40 days, 20 of them in
    # May, each reading's value one step further away than its date.
    days = [f"2016-04-{d:02d}" for d in range(11, 31)] + [f"2016-05-{d:02d}" for d in range(1, 21)]
    quads = []
    for i, day in enumerate(days):
        quads.append(q("dev", "evaluation", f"e{i}", graph))
        quads.append(q(f"e{i}", "at", Literal(f"{day}T00:00:00Z", XSD_DATETIME), graph))
        quads.append(q(f"e{i}", "value", f"r{i}", graph))
        quads.append(q(f"r{i}", "number", Literal(str(i), XSD_INTEGER), graph))
    ds = quad_store(quads)
    body = f"<{EX}dev> <{EX}evaluation> ?e . ?e <{EX}at> ?d ; <{EX}value>/<{EX}number> ?v ."
    if graph is not None:
        body = f"GRAPH <{graph.value}> {{ {body} }}"
    query = parse_query(
        f"SELECT ?d ?v WHERE {{ {body} FILTER (year(?d) = 2016 && month(?d) = 5) }}"
    )
    steps = []
    original = evaluator._extend

    def counting(tp, *rest):
        extend = original(tp, *rest)

        def counted(rows, run):
            steps.append((tp, len(rows)))
            return extend(rows, run)

        return counted

    monkeypatch.setattr(evaluator, "_extend", counting)
    rows = evaluate(ds, query).rows
    assert len(rows) == 20
    assert rows == naive.naive_evaluate(ds, query)
    dated = next(n for n, (tp, _) in enumerate(steps) if "d" in tp)
    assert [size for _, size in steps[: dated + 1]] == [1, 40]
    # The value's two steps come later and extend only the May rows.
    assert [size for _, size in steps[dated + 1 :]] == [20, 20]


def test_constant_absent_from_store_gives_no_rows():
    ds = quad_store([q("s", "p", "o"), q("s", "p", Literal("x"))])
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
    ds = quad_store(quads)
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
    ds = quad_store(
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
    ds = quad_store([q("b", "p", "o"), q("a", "p", "o"), q("c", "p", Literal(""))])
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

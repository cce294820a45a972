import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energykg import cli, turtle
from energykg.cli import load_store
from energykg.config import PipelineConfig
from energykg.dataset import ANY, Dataset, FrozenDatasetError, UnfrozenDatasetError
from energykg.sparql import evaluate, parse_query, to_results_json, to_results_tsv
from energykg.terms import (
    BlankNode, Iri, Literal, PrefixMap, Quad, decode_term, quad_key, term_key,
)
from energykg.turtle import load_turtle

import conftest
import naive
import querygen
from stores import quad_store, store

G = Iri("http://jresearch.ucd.ie/climate-kg/graph/cossmic")
S = Iri("http://example.org/s")
P = Iri("http://example.org/p")
O = Literal("x")


def _quads(ds):
    """Every quad of the store, read at the id level, graph by graph."""
    return [
        Quad(*map(ds.term, triple), graph)
        for graph in (None, *ds.graphs())
        for triple in ds.triples(None, None, None, graph)
    ]


def test_add_is_idempotent():
    ds = quad_store([Quad(S, P, O), Quad(S, P, O)])
    assert len(ds) == 1


def test_add_to_empty_dataset():
    ds = quad_store([Quad(S, P, O)])
    assert len(ds) == 1
    assert ds.match() == [Quad(S, P, O)]


def test_named_graph_quad_only_visible_in_its_graph():
    ds = quad_store([Quad(S, P, O, G)])
    assert ds.match(graph=G) == [Quad(S, P, O, G)]
    assert ds.match(graph=None) == []
    # Linear-scan comparison for the same pattern.
    assert [q for q in _quads(ds) if q.graph is None] == []
    assert ds.match(S, P, O, ANY) == [Quad(S, P, O, G)]


def test_match_on_empty_dataset():
    assert quad_store().match() == []


def test_match_by_each_position():
    other = Quad(Iri("http://example.org/s2"), P, Literal("y"))
    ds = quad_store([Quad(S, P, O), other])
    assert ds.match(subject=S) == [Quad(S, P, O)]
    assert ds.match(object=Literal("y")) == [other]
    assert len(ds.match(predicate=P)) == 2


def test_freeze_blocks_mutation():
    ds = quad_store([Quad(S, P, O)])
    # A graph the store holds, and one it does not.
    for graph in (None, G):
        with pytest.raises(FrozenDatasetError):
            ds.add_graph(graph, [], [(None, [], [0])] * 3)
    assert ds.match() == [Quad(S, P, O)]


def test_each_reader_of_an_unfrozen_store_refuses_it():
    ds = Dataset()
    load_turtle(ds, "<http://example.org/s> <http://example.org/p> 1 .", graph=G)
    query = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
    readers = [
        len,
        Dataset.graphs,
        Dataset.match,
        # A term no quad holds, which a frozen store answers without a table.
        lambda ds: ds.match(Iri("http://example.org/absent")),
        lambda ds: ds.graph(G),
        lambda ds: ds.triples(None, None, None, G),
        lambda ds: evaluate(ds, query),
    ]
    for read in readers:
        with pytest.raises(UnfrozenDatasetError):
            read(ds)
    ds.freeze()
    assert len(ds) == 1 and ds.graphs() == [G]


def test_graphs_listing():
    ds = quad_store([Quad(S, P, O), Quad(S, P, O, G)])
    assert ds.graphs() == [G]


def _scan(quads, s, p, o, g):
    return sorted(
        (
            q
            for q in quads
            if (s is ANY or q.subject == s)
            and (p is ANY or q.predicate == p)
            and (o is ANY or q.object == o)
            and (g is ANY or q.graph == g)
        ),
        key=quad_key,
    )


def test_match_equals_linear_scan_on_randomized_patterns():
    """Index soundness and completeness against a brute-force scan."""
    rnd = random.Random(20160501)
    checked = 0
    for round_number in range(20):
        ds = querygen.random_dataset(rnd, max_quads=1000)
        quads = _quads(ds)
        terms = [q.subject for q in quads] + [q.predicate for q in quads] + [
            q.object for q in quads
        ]
        graphs = [None, querygen.NAMED_GRAPHS[0], querygen.NAMED_GRAPHS[1]]
        for _ in range(50):
            s = rnd.choice(terms) if rnd.random() < 0.5 else ANY
            p = rnd.choice(terms) if rnd.random() < 0.4 else ANY
            o = rnd.choice(terms) if rnd.random() < 0.5 else ANY
            g = rnd.choice(graphs) if rnd.random() < 0.5 else ANY
            assert ds.match(s, p, o, g) == _scan(quads, s, p, o, g)
            checked += 1
    assert checked == 1000


def test_absent_terms_and_graphs_match_nothing():
    ds = quad_store([Quad(S, P, O, G)])
    absent = Iri("http://example.org/absent")
    assert ds.match(subject=absent) == []
    assert ds.match(object=Literal("absent")) == []
    assert ds.match(graph=absent) == []
    assert ds.match(S, P, Literal("absent"), G) == []
    assert ds.match(S, P, O, None) == []


def test_a_term_no_triple_holds_at_a_place_matches_nothing_there():
    g2 = Iri("http://example.org/g2")
    x = Iri("http://example.org/x")
    ds = quad_store([Quad(S, P, O, G), Quad(P, P, S), Quad(x, x, x, g2)])
    # x has the newest id: a run table read at index -1 would give its run.
    assert ds.id_of(x) == len(ds.texts()) - 1
    absent = Iri("http://example.org/absent")
    for term in (absent, Literal("absent"), S, P, O, x):
        for position in range(3):
            pattern = [ANY, ANY, ANY]
            pattern[position] = term
            for graph in (ANY, None, G, g2):
                expected = [
                    quad for quad in _quads(ds)
                    if (graph is ANY or quad.graph == graph)
                    and (quad.subject, quad.predicate, quad.object)[position] == term
                ]
                assert ds.match(*pattern, graph) == sorted(expected, key=quad_key)
            if isinstance(term, Literal) and position < 2:
                continue
            slots = ["?a", "?b", "?c"]
            slots[position] = f"<{term.value}>" if isinstance(term, Iri) else '"absent"'
            triple = " ".join(slots)
            variables = " ".join(slot for slot in slots if slot[0] == "?")
            for graph in (None, G, g2):
                body = triple if graph is None else f"GRAPH <{graph.value}> {{ {triple} }}"
                query = parse_query(f"SELECT {variables} WHERE {{ {body} }}")
                rows = evaluate(ds, query).rows
                assert rows == naive.naive_evaluate(ds, query)
                if term in (absent, Literal("absent")):
                    assert rows == []


def test_an_id_interned_after_a_graph_was_built_probes_that_graph(tmp_path, monkeypatch):
    # g1's sidecar is loaded first, and its run table spans only its own
    # ids; g2's file then interns n and r. freeze() widens g1's tables.
    g1, g2 = Iri("http://example.org/g1"), Iri("http://example.org/g2")
    a, r, n = Iri("http://example.org/a"), Iri("http://example.org/r"), Iri("http://example.org/n")
    files = {g1: [(a, P, S), (S, P, O)], g2: [(a, r, n), (a, r, S), (n, r, a)]}
    paths = []
    for number, (graph, triples) in enumerate(files.items()):
        paths.append(str(tmp_path / f"g{number}.ttl"))
        texts = [term_key(term) for triple in triples for term in triple]
        cli._write_store(paths[-1], texts, graph, PrefixMap())

    def refused(*args, **kwargs):
        raise AssertionError("a file was parsed, not loaded from its sidecar")

    monkeypatch.setattr(turtle, "load_turtle", refused)
    ds = load_store(paths, PipelineConfig())
    assert ds.id_of(n) >= len({term for triple in files[g1] for term in triple})
    # FROM merges both graphs into one: ?y is bound in g2 to n, whose id is
    # newer than g1's sidecar, and then probes g1 as well.
    query = parse_query(
        "SELECT ?y ?z FROM <http://example.org/g1> FROM <http://example.org/g2> WHERE {"
        " <http://example.org/a> <http://example.org/r> ?y . ?y ?p ?z }"
    )
    rows = evaluate(ds, query).rows
    assert rows == naive.naive_evaluate(ds, query)
    assert {row["y"] for row in rows} == {S, n}


def test_graphs_lists_only_graphs_holding_quads():
    assert store((G, [])).graphs() == []
    ds = store((G, [tuple(map(term_key, (S, P, O)))]))
    assert ds.graphs() == [G]
    assert ds.match(graph=G) == [Quad(S, P, O, G)]


def test_terms_read_inside_a_failed_interning_block_are_forgotten():
    ds = Dataset()
    with ds.interning() as ids:
        held = tuple(ids[term_key(term)] for term in (S, P, O))
    ds.add_ids([held])
    with pytest.raises(ValueError):
        with ds.interning() as ids:
            ids[term_key(Literal("dropped"))]
            assert len(ds.texts()) == 4
            raise ValueError("parse failed")
    with ds.interning() as ids:
        kept = ids[term_key(Literal("kept"))]
    ds.add_ids([held[:2] + (kept,)])
    ds.freeze()
    assert list(map(ds.term, range(len(ds.texts())))) == [S, P, O, Literal("kept")]


def test_id_level_insert_is_blocked_after_freeze():
    ds = quad_store([Quad(S, P, O)])
    with pytest.raises(FrozenDatasetError):
        ds.add_ids([(0, 1, 2)])
    with pytest.raises(FrozenDatasetError):
        with ds.interning():
            pass


def test_reading_a_frozen_store_leaves_it_unchanged():
    ds = conftest.build_three_day_store()
    before = pickle.dumps(ds)
    query = parse_query(
        f"SELECT ?e ?t WHERE {{ GRAPH <{G.value}> {{ ?e <http://www.w3.org/ns/prov#generatedAtTime> ?t }}"
        " FILTER (year(?t) = 2016) }"
    )
    seq = evaluate(ds, query)
    assert len(seq.rows) == 3
    assert to_results_json(seq) and to_results_tsv(seq)
    assert ds.match(graph=G)
    assert [ds.term(i) for i in range(len(ds.texts()))] == list(map(decode_term, ds.texts()))
    assert pickle.dumps(ds) == before


# -- canonical term text ---------------------------------------------------------

# IRI characters, including the ones a literal's text uses as delimiters
# that an IRI may hold.
_iri_values = st.text(alphabet="abcXYZ019/#:._~%'()*+,;=@!$&-?\u00e9", max_size=12).map(
    lambda tail: "http://e.example/" + tail
)
# Lexical forms that hold the delimiters of a literal's canonical text.
_lexicals = st.one_of(
    st.text(alphabet='ab"^<>\\\n\r\t _:\u00e9', max_size=10),
    st.sampled_from(['', '"^^<', '"^^<http://e.example/dt>', 'x"^^<y>"^^<', '>', '"', '""']),
)
_datatypes = st.one_of(
    st.sampled_from([
        "http://www.w3.org/2001/XMLSchema#string",
        "http://www.w3.org/2001/XMLSchema#decimal",
    ]),
    _iri_values,
).map(Iri)
_terms = st.one_of(
    _iri_values.map(Iri),
    st.builds(Literal, _lexicals, _datatypes),
    st.text(alphabet="ab_01", min_size=1, max_size=4).map(BlankNode),
)


@settings(max_examples=500, deadline=None)
@given(_terms)
def test_canonical_text_decodes_to_an_equal_term(term):
    decoded = decode_term(term_key(term))
    assert decoded == term
    assert type(decoded) is type(term)


@settings(max_examples=200, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=40))
def test_ranks_order_ids_as_term_keys_do(terms):
    subject, predicate = term_key(Iri("http://e.example/s")), term_key(Iri("http://e.example/p"))
    ds = store((None, [(subject, predicate, term_key(term)) for term in terms]))
    texts = ds.texts()
    count = len(texts)
    # Each id's rank is its place in the sorted texts, which are distinct.
    ranks = {text: rank for rank, text in enumerate(sorted(texts))}
    assert len(ranks) == count
    by_rank = sorted(range(count), key=lambda i: ranks[texts[i]])
    assert by_rank == sorted(range(count), key=lambda i: term_key(ds.term(i)))
    assert all(ds.term(ds.id_of(term)) == term for term in terms)

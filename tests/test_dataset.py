import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energykg.dataset import ANY, Dataset, FrozenDatasetError
from energykg.sparql import evaluate, parse_query, to_results_json, to_results_tsv
from energykg.terms import BlankNode, Iri, Literal, Quad, decode_term, quad_key, term_key

import conftest
import naive
import querygen

G = Iri("http://jresearch.ucd.ie/climate-kg/graph/cossmic")
S = Iri("http://example.org/s")
P = Iri("http://example.org/p")
O = Literal("x")


def test_add_is_idempotent():
    ds = Dataset()
    ds.add(Quad(S, P, O))
    ds.add(Quad(S, P, O))
    assert len(ds) == 1


def test_add_to_empty_dataset():
    ds = Dataset()
    ds.add(Quad(S, P, O))
    assert len(ds) == 1
    assert Quad(S, P, O) in ds


def test_named_graph_quad_only_visible_in_its_graph():
    ds = Dataset()
    ds.add(Quad(S, P, O, G))
    assert ds.match(graph=G) == [Quad(S, P, O, G)]
    assert ds.match(graph=None) == []
    # Linear-scan comparison for the same pattern.
    assert [q for q in ds if q.graph is None] == []
    assert ds.match(S, P, O, ANY) == [Quad(S, P, O, G)]


def test_match_on_empty_dataset():
    assert Dataset().match() == []


def test_match_by_each_position():
    ds = Dataset()
    other = Quad(Iri("http://example.org/s2"), P, Literal("y"))
    ds.add(Quad(S, P, O))
    ds.add(other)
    assert ds.match(subject=S) == [Quad(S, P, O)]
    assert ds.match(object=Literal("y")) == [other]
    assert len(ds.match(predicate=P)) == 2


def test_freeze_blocks_mutation():
    ds = Dataset()
    ds.add(Quad(S, P, O))
    ds.freeze()
    with pytest.raises(FrozenDatasetError):
        ds.add(Quad(S, P, Literal("other")))


def test_graphs_listing():
    ds = Dataset()
    ds.add(Quad(S, P, O))
    ds.add(Quad(S, P, O, G))
    assert ds.graphs() == [G]


def test_match_equals_linear_scan_on_randomized_patterns():
    """Index soundness and completeness against a brute-force scan."""
    rnd = random.Random(20160501)
    checked = 0
    for round_number in range(20):
        ds = querygen.random_dataset(rnd, max_quads=1000)
        quads = list(ds)
        terms = [q.subject for q in quads] + [q.predicate for q in quads] + [
            q.object for q in quads
        ]
        graphs = [None, querygen.NAMED_GRAPHS[0], querygen.NAMED_GRAPHS[1]]
        for _ in range(50):
            s = rnd.choice(terms) if rnd.random() < 0.5 else ANY
            p = rnd.choice(terms) if rnd.random() < 0.4 else ANY
            o = rnd.choice(terms) if rnd.random() < 0.5 else ANY
            g = rnd.choice(graphs) if rnd.random() < 0.5 else ANY
            expected = sorted(
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
            assert ds.match(s, p, o, g) == expected
            checked += 1
    assert checked == 1000


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


def test_match_equals_linear_scan_when_adds_and_matches_interleave():
    """New terms after a match must not reuse the order the match computed."""
    rnd = random.Random(20080824)
    graphs = [None, querygen.NAMED_GRAPHS[0], querygen.NAMED_GRAPHS[1]]
    ds = Dataset()
    added: set[Quad] = set()
    for round_number in range(30):
        # Fresh names sort before, between and after the earlier ones.
        names = [f"{rnd.choice('azm')}{round_number}-{i}" for i in range(4)]
        for _ in range(rnd.randint(1, 25)):
            quad = Quad(
                Iri("http://example.org/" + rnd.choice(names)),
                Iri("http://example.org/p" + rnd.choice("abc")),
                rnd.choice([Literal(rnd.choice(names)), Iri("http://example.org/" + rnd.choice(names))]),
                rnd.choice(graphs),
            )
            ds.add(quad)
            added.add(quad)
        assert len(ds) == len(added)
        assert set(ds) == added
        terms = [t for q in added for t in (q.subject, q.predicate, q.object)]
        for _ in range(10):
            s = rnd.choice(terms) if rnd.random() < 0.3 else ANY
            p = rnd.choice(terms) if rnd.random() < 0.3 else ANY
            o = rnd.choice(terms) if rnd.random() < 0.3 else ANY
            g = rnd.choice(graphs) if rnd.random() < 0.5 else ANY
            assert ds.match(s, p, o, g) == _scan(added, s, p, o, g)
    ds.freeze()
    assert ds.match() == _scan(added, ANY, ANY, ANY, ANY)


def test_absent_terms_and_graphs_match_nothing():
    ds = Dataset([Quad(S, P, O, G)])
    absent = Iri("http://example.org/absent")
    assert ds.match(subject=absent) == []
    assert ds.match(object=Literal("absent")) == []
    assert ds.match(graph=absent) == []
    assert Quad(S, P, Literal("absent"), G) not in ds
    assert Quad(S, P, O) not in ds
    assert "not a quad" not in ds


def test_a_term_no_triple_holds_at_a_place_matches_nothing_there():
    g2 = Iri("http://example.org/g2")
    x = Iri("http://example.org/x")
    ds = Dataset([Quad(S, P, O, G), Quad(P, P, S), Quad(x, x, x, g2)]).freeze()
    # x has the newest id: a run table read at index -1 would give its run.
    assert ds.id_of(x) == len(ds.texts()) - 1
    absent = Iri("http://example.org/absent")
    for term in (absent, Literal("absent"), S, P, O, x):
        for position in range(3):
            pattern = [ANY, ANY, ANY]
            pattern[position] = term
            for graph in (ANY, None, G, g2):
                expected = [
                    quad for quad in ds
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


def _newer_ids_store(read_between):
    """A store whose graph g1 was built before a second insert interned
    the terms that g2 holds; read_between(ds) runs between the inserts."""
    g1, g2 = Iri("http://example.org/g1"), Iri("http://example.org/g2")
    a, r, n = Iri("http://example.org/a"), Iri("http://example.org/r"), Iri("http://example.org/n")
    ds = Dataset([Quad(a, P, S, g1), Quad(S, P, O, g1)])
    read_between(ds)
    ds.add_all([Quad(a, r, n, g2), Quad(a, r, S, g2), Quad(n, r, a, g2)])
    return ds


def test_an_id_interned_after_a_graph_was_built_probes_that_graph():
    # FROM merges both graphs into one: ?y is bound in g2 to n, whose id is
    # newer than g1's run tables, and then probes g1 as well.
    query = parse_query(
        "SELECT ?y ?z FROM <http://example.org/g1> FROM <http://example.org/g2> WHERE {"
        " <http://example.org/a> <http://example.org/r> ?y . ?y ?p ?z }"
    )
    # g1 is grouped when it is read between the inserts; it is widened
    # when read after them, or at freeze().
    def read(ds):
        assert len(ds.match(graph=Iri("http://example.org/g1"))) == 2

    for ds in (_newer_ids_store(read).freeze(), _newer_ids_store(read)):
        rows = evaluate(ds, query).rows
        assert rows == naive.naive_evaluate(ds, query)
        assert {row["y"] for row in rows} == {S, Iri("http://example.org/n")}


def test_graphs_lists_only_graphs_holding_quads():
    ds = Dataset()
    ds.add_triples([], G)
    assert ds.graphs() == []
    ds.add_triples([(S, P, O)], G)
    assert ds.graphs() == [G]
    assert ds.match(graph=G) == [Quad(S, P, O, G)]


def test_terms_read_inside_a_failed_interning_block_are_forgotten():
    ds = Dataset([Quad(S, P, O)])
    with pytest.raises(ValueError):
        with ds.interning() as intern:
            intern(Literal("dropped"))
            ds.terms()
            raise ValueError("parse failed")
    ds.add(Quad(S, P, Literal("kept")))
    assert ds.terms() == [S, P, O, Literal("kept")]


def test_id_level_insert_is_blocked_after_freeze():
    ds = Dataset([Quad(S, P, O)]).freeze()
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
    assert [ds.term(i) for i in range(len(ds.texts()))] == ds.terms()
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
    ds = Dataset()
    predicate = Iri("http://e.example/p")
    ds.add_triples((Iri("http://e.example/s"), predicate, term) for term in terms)
    ds.freeze()
    texts = ds.texts()
    count = len(ds.terms())
    # Each id's rank is its place in the sorted texts, which are distinct.
    ranks = {text: rank for rank, text in enumerate(sorted(texts))}
    assert len(ranks) == count
    by_rank = sorted(range(count), key=lambda i: ranks[texts[i]])
    assert by_rank == sorted(range(count), key=lambda i: term_key(ds.term(i)))
    assert all(ds.term(ds.id_of(term)) == term for term in terms)

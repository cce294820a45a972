import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import naive_results
import querygen
from stores import quad_store
from energykg.sparql import ast, evaluate, parse_query
from energykg.sparql.ast import SelectQuery, Variable
from energykg.sparql.results import to_results_json, to_results_tsv
from energykg.terms import BlankNode, Iri, Literal, Quad, XSD_DECIMAL, XSD_STRING


def _sample():
    # An IRI's text sorts before a blank node's, so the IRI's row comes first.
    p = Iri("http://example.org/p")
    ds = quad_store([
        Quad(BlankNode("b0"), p, Literal("plain \"quoted\"\ttabbed")),
        Quad(Iri("http://example.org/a"), p, Literal("1.5", XSD_DECIMAL)),
    ])
    return _evaluated(ds, ("s", "v", "missing"), "SELECT ?s ?v WHERE { ?s ?p ?v }")


def test_json_schema_keys():
    payload = json.loads(to_results_json(_sample()))
    assert payload["head"]["vars"] == ["s", "v", "missing"]
    bindings = payload["results"]["bindings"]
    assert bindings[0]["s"] == {"type": "uri", "value": "http://example.org/a"}
    assert bindings[0]["v"] == {
        "type": "literal",
        "value": "1.5",
        "datatype": "http://www.w3.org/2001/XMLSchema#decimal",
    }
    # Plain strings carry no datatype key; unbound variables are absent.
    assert bindings[1]["v"] == {"type": "literal", "value": 'plain "quoted"\ttabbed'}
    assert bindings[1]["s"] == {"type": "bnode", "value": "b0"}
    assert "missing" not in bindings[0]


def test_json_is_deterministic():
    assert to_results_json(_sample()) == to_results_json(_sample())


def test_tsv_header_and_escaping():
    text = to_results_tsv(_sample())
    lines = text.split("\n")
    assert lines[0] == "?s\t?v\t?missing"
    assert lines[1].startswith("<http://example.org/a>\t")
    assert '"1.5"^^<http://www.w3.org/2001/XMLSchema#decimal>' in lines[1]
    assert "\\t" in lines[2]  # tab inside the literal is escaped
    assert lines[2].endswith("\t")  # unbound column is empty
    assert text.endswith("\n")


# -- against the reference serializers ----------------------------------------

_XSD = "http://www.w3.org/2001/XMLSchema#"
# Characters that JSON or TSV escape, or that either writes as they are.
_TRICKY = '"\\\n\t\r\x00\x01\x1f\x7f\x85é日  \U0001f600 a'


def _assert_as_reference(seq):
    assert to_results_json(seq) == naive_results.to_results_json(seq)
    assert to_results_tsv(seq) == naive_results.to_results_tsv(seq)


def _evaluated(ds, projection, text="SELECT ?s ?p ?o WHERE { ?s ?p ?o }"):
    """The evaluation of text's pattern projected to the named variables,
    built directly, since the parser refuses an unbound projected one."""
    parsed = parse_query(text)
    query = SelectQuery(tuple(map(Variable, projection)), parsed.pattern, limit=parsed.limit)
    return evaluate(ds, query)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_querygen_answers_serialize_as_the_reference_does(seed):
    rnd = random.Random(seed)
    ds = querygen.random_dataset(rnd, max_quads=150)
    _assert_as_reference(evaluate(ds, parse_query(querygen.random_query_text(rnd, ds))))


_iris = st.text(st.characters(blacklist_characters='<>"{}|^`\\', min_codepoint=0x21), max_size=6)
_subjects = st.one_of(
    _iris.map(lambda tail: Iri("http://example.org/" + tail)),
    st.text("ab_0é", min_size=1, max_size=3).map(BlankNode),
)
_objects = st.one_of(
    _subjects,
    st.builds(
        Literal,
        st.text(st.sampled_from(_TRICKY), max_size=8),
        st.sampled_from([XSD_STRING, XSD_DECIMAL, Iri(_XSD + "dateTime"), Iri("http://example.org/dt")]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_subjects, _iris, _objects), min_size=1, max_size=12),
    st.lists(st.sampled_from(["s", "p", "o", "never"]), min_size=1, max_size=5),
)
def test_any_terms_and_projections_serialize_as_the_reference_does(triples, projection):
    """Literals with characters to escape, non-ASCII and line separators,
    plain strings, blank nodes, and projections that repeat a variable or
    name one that no row binds."""
    ds = quad_store(
        Quad(s, Iri("http://example.org/" + p), o) for s, p, o in triples
    )
    _assert_as_reference(_evaluated(ds, projection))


def test_each_special_case_serializes_as_the_reference_does():
    s = Iri("http://example.org/s é")
    quads = [Quad(s, Iri("http://example.org/p"), Literal(_TRICKY))]
    quads += [Quad(BlankNode("b0"), Iri("http://example.org/q"), Literal(c, XSD_DECIMAL)) for c in _TRICKY]
    ds = quad_store(quads)
    for projection in (("s", "o"), ("o", "never", "s", "o"), ("never",)):
        seq = _evaluated(ds, projection)
        _assert_as_reference(seq)
    bindings = json.loads(to_results_json(_evaluated(ds, ("o",))))["results"]["bindings"]
    assert {"o": {"type": "literal", "value": _TRICKY}} in bindings
    empty = _evaluated(ds, ("s",), "SELECT ?s WHERE { ?s ?p ?o } LIMIT 0")
    _assert_as_reference(empty)
    assert to_results_json(empty) == '{"head": {"vars": ["s"]}, "results": {"bindings": []}}'


def test_serializing_an_evaluation_decodes_no_term(monkeypatch):
    ds = querygen.random_dataset(random.Random(7), max_quads=100)
    seq = evaluate(ds, parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }"))
    expected = naive_results.to_results_json(evaluate(ds, parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")))

    def refused(*args):
        raise AssertionError("a term was decoded")

    monkeypatch.setattr(ast, "decode_term", refused)
    monkeypatch.setattr(ds, "term", refused)
    assert to_results_json(seq) == expected
    to_results_tsv(seq)

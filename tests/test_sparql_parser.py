import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_sparql
import querygen
from energykg.errors import EnergyKgError
from energykg.namespaces import RDF_TYPE
from energykg.sparql import QueryParseError, UnsupportedFeatureError, parse_query
from energykg.sparql import parser
from energykg.sparql.ast import (
    And,
    BGP,
    Constant,
    DateFunc,
    Equals,
    Filter,
    Graph,
    Join,
    SequencePath,
    Variable,
)
from energykg.sparql.parser import MAX_DEPTH, _tokenize
from energykg.terms import Iri, Literal, XSD_BOOLEAN, XSD_INTEGER


def test_minimal_query_ast():
    q = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
    assert q.projection == (Variable("s"),)
    assert isinstance(q.pattern, BGP)
    tp = q.pattern.patterns[0]
    assert tp.subject == Variable("s")
    assert tp.predicate == Variable("p")
    assert tp.object == Variable("o")
    assert q.limit is None
    assert q.dataset_clauses == ()


def test_join_query_parses_with_expected_structure(join_query_text):
    q = parse_query(join_query_text)
    assert [v.name for v in q.projection] == ["eval", "val", "maxTprt", "date"]
    assert [(c.named, c.graph.value) for c in q.dataset_clauses] == [
        (False, "urn:x-arq:DefaultGraph"),
        (True, "http://jresearch.ucd.ie/climate-kg/graph/cossmic"),
    ]
    assert isinstance(q.pattern, Filter)
    join = q.pattern.pattern
    assert isinstance(join, Join)
    assert isinstance(join.left, BGP)
    assert isinstance(join.right, Graph)
    assert join.right.name.value == "http://jresearch.ucd.ie/climate-kg/graph/cossmic"
    # Both qudt spellings appear, each at the end of a sequence path.
    paths = [
        tp.predicate
        for tp in join.left.patterns + join.right.pattern.patterns
        if isinstance(tp.predicate, SequencePath)
    ]
    tails = {p.right.value for p in paths if isinstance(p.right, Iri)}
    assert "http://qudt.org/1.1/schema/qudt#numericValue" in tails
    assert "http://qudt.org/1.1/schema/qudt#numericalValue" in tails


def test_base_resolution_and_a_keyword():
    q = parse_query(
        "BASE <http://example.org/dir/>\nSELECT ?s WHERE { ?s a <kind> }"
    )
    tp = q.pattern.patterns[0]
    assert tp.predicate == RDF_TYPE
    assert tp.object == Iri("http://example.org/dir/kind")


def test_prefixed_names_expand():
    q = parse_query(
        "PREFIX ex: <http://example.org/>\nSELECT ?s WHERE { ?s ex:p ex:o }"
    )
    tp = q.pattern.patterns[0]
    assert tp.predicate == Iri("http://example.org/p")


def test_unknown_prefix_is_named():
    with pytest.raises(QueryParseError) as excinfo:
        parse_query("SELECT ?s WHERE { ?s nope:p ?o }")
    assert "nope" in str(excinfo.value)


def test_comments_stripped():
    q = parse_query("# leading\nSELECT ?s # trailing\nWHERE { ?s ?p ?o } # end\n")
    assert q.projection == (Variable("s"),)


def test_limit_parsed():
    q = parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 25")
    assert q.limit == 25


def test_optional_is_unsupported():
    with pytest.raises(UnsupportedFeatureError) as excinfo:
        parse_query("SELECT ?s WHERE { ?s ?p ?o OPTIONAL { ?s ?q ?r } }")
    assert "OPTIONAL" in str(excinfo.value)


@pytest.mark.parametrize(
    "text,keyword",
    [
        ("SELECT * WHERE { ?s ?p ?o }", "SELECT *"),
        ("SELECT DISTINCT ?s WHERE { ?s ?p ?o }", "DISTINCT"),
        ("SELECT ?s WHERE { { ?s ?p ?o } UNION { ?s ?q ?o } }", "UNION"),
        ("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s", "ORDER"),
        ("SELECT ?s WHERE { ?s ?p ?o . FILTER (?s = ?o || ?s = ?o) }", "||"),
    ],
)
def test_unsupported_features_are_named(text, keyword):
    with pytest.raises(UnsupportedFeatureError) as excinfo:
        parse_query(text)
    assert keyword in str(excinfo.value)


def test_syntax_error_carries_position():
    with pytest.raises(QueryParseError) as excinfo:
        parse_query("SELECT ?s WHERE { ?s ?p }")
    assert excinfo.value.line == 1
    assert excinfo.value.column > 0


def test_projection_must_appear_in_pattern():
    with pytest.raises(QueryParseError) as excinfo:
        parse_query("SELECT ?nope WHERE { ?s ?p ?o }")
    assert "nope" in str(excinfo.value)


def test_filter_expression_shapes():
    q = parse_query(
        "SELECT ?a WHERE { ?a ?b ?c . FILTER (year(?c) = 2016 && ?a = ?c) } LIMIT 0"
    )
    assert isinstance(q.pattern, Filter)
    assert q.limit == 0


def test_parenthesised_expressions_and_boolean_constants():
    q = parse_query("SELECT ?a WHERE { ?a ?b ?c . FILTER (((?a = ?c)) && (true) && false) }")
    true, false = (Constant(Literal(word, XSD_BOOLEAN)) for word in ("true", "false"))
    # Parentheses only group: the tree is as without them, left-deep.
    assert q.pattern.expression == And(And(Equals(Variable("a"), Variable("c")), true), false)


def test_select_needs_a_variable():
    with pytest.raises(QueryParseError, match="SELECT needs at least one variable") as info:
        parse_query("SELECT WHERE { ?s ?p ?o }")
    assert (info.value.line, info.value.column) == (1, 8)


def test_numeric_and_string_literals_in_patterns():
    q = parse_query('SELECT ?s WHERE { ?s <http://e/p> 42 . ?s <http://e/q> "x" }')
    objects = [tp.object for tp in q.pattern.patterns]
    assert Literal("42", XSD_INTEGER) in objects
    assert Literal("x") in objects


def test_relative_iri_without_base_is_an_error():
    with pytest.raises(QueryParseError):
        parse_query("SELECT ?s WHERE { ?s <relative/path> ?o }")


def test_nesting_limit():
    def nested(levels):
        return "SELECT ?s WHERE " + "{ " * levels + "?s ?p ?o " + "} " * levels

    assert isinstance(parse_query(nested(MAX_DEPTH)).pattern, BGP)
    with pytest.raises(QueryParseError, match="nested deeper") as info:
        parse_query(nested(MAX_DEPTH + 1))
    # The brace one level too deep.
    assert (info.value.line, info.value.column) == (1, 17 + 2 * MAX_DEPTH)


def _depth(root) -> int:
    """The levels of a pattern tree with its expressions and paths, each
    leaf one level."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, BGP):
            children = [tp.predicate for tp in node.patterns]
        elif isinstance(node, (Join, And, Equals, SequencePath)):
            children = [node.left, node.right]
        elif isinstance(node, Filter):
            children = [node.expression, node.pattern]
        elif isinstance(node, Graph):
            children = [node.pattern]
        elif isinstance(node, DateFunc):
            children = [node.argument]
        else:
            continue
        stack.extend((child, depth + 1) for child in children)
    return deepest


def _filter(ands, days):
    test = "DAY(" * days + "?o" + ")" * days + " = 1"
    return "FILTER(" + " && ".join([test] * ands) + ")"


# Items of the innermost group: a triple with a path of n segments, a
# one-triple group, or a FILTER of an && chain over nested DAY() calls.
_ITEMS = st.one_of(
    st.integers(1, 110).map(lambda n: "?s " + "/".join(["<http://e/p>"] * n) + " ?o ."),
    st.just("{ ?s <http://e/q> ?o }"),
    st.builds(_filter, st.integers(1, 110), st.integers(0, 30)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.booleans(), max_size=40),
    st.lists(st.one_of(_ITEMS, st.just("{ ?s <http://e/q> ?o }")), max_size=120),
)
def test_nesting_limit_is_the_pattern_trees_depth(wrappers, items):
    """A query is refused for nesting exactly when its pattern tree, with
    expressions and paths, is deeper than MAX_DEPTH levels, however the
    depth is reached; the error names a place inside the query."""
    body = "{ ?s ?p ?o . " + " ".join(items) + " }"
    for graph in wrappers:
        body = "{ " + ("GRAPH <http://e/g> " if graph else "") + body + " }"
    text = "SELECT ?s WHERE " + body
    limit = parser.MAX_DEPTH
    parser.MAX_DEPTH = 10**6
    try:
        depth = _depth(parse_query(text).pattern)
    finally:
        parser.MAX_DEPTH = limit
    if depth <= MAX_DEPTH:
        parse_query(text)
        return
    with pytest.raises(QueryParseError, match="nested deeper") as info:
        parse_query(text)
    assert info.value.line == 1 and 1 <= info.value.column <= len(text)


_ERRORS = Path(__file__).parent / "data" / "sparql_errors.txt"


@pytest.mark.parametrize(
    "line", _ERRORS.read_text(encoding="utf-8").splitlines(), ids=lambda line: line[:40]
)
def test_error_message_and_position(line):
    """Each line of the file is a malformed query and the exact error text
    it gives, as a JSON list; the line is rebuilt byte for byte."""
    query, _ = json.loads(line)
    with pytest.raises(QueryParseError) as excinfo:
        parse_query(query)
    assert json.dumps([query, str(excinfo.value)], ensure_ascii=False) == line


def _outcome(tokenize, text):
    """What tokenize gives for text: its tokens, or its error's type and text."""
    try:
        return tokenize(text)
    except EnergyKgError as exc:
        return type(exc), str(exc)


def _positioned(text):
    """The lexer's tokens, each offset turned into line and column."""
    return [
        (kind, value, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start))
        for kind, value, start in _tokenize(text)
    ]


def _reference(text):
    return [(t.kind, t.value, t.line, t.column) for t in naive_sparql._tokenize(text)]


# Characters and fragments that start, end or break a token.
_FRAGMENTS = [*"<>?$\"\\#&|^{}().;,/=*:_-' 09é٣\r\n\t", "SELECT", "a", "true", "x",
              "ex", "\\n", "\\'", "WHERE", "<http://example.org/>", '"ab"', "1.5"]


def _generated_query(seed: int, kept: float = 1.0) -> str:
    """A querygen query, its first ``kept`` share only."""
    rnd = random.Random(seed)
    text = querygen.random_query_text(rnd, querygen.random_dataset(rnd, max_quads=20))
    return text[: round(len(text) * kept)]


# A string literal, perhaps malformed: every escape the lexer decodes, and some it rejects.
_strings = st.text(alphabet="\\tnr\"'qué\n", max_size=8).map(lambda body: f'"{body}"')
# A comment, which runs to the end of its line only.
_comments = st.text(alphabet="x \r\t#\"<", max_size=6).map(lambda body: f"#{body}")
_fragments = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), _strings, _comments), max_size=60
).map("".join)
_texts = st.one_of(
    _fragments,
    _fragments,
    st.builds(_generated_query, st.integers(0, 2**32)),
    # Cut short, which can leave a string or an IRI open.
    st.builds(_generated_query, st.integers(0, 2**32), st.floats(0, 1)),
)


@settings(max_examples=1000, deadline=None)
@given(_texts)
def test_tokens_match_reference_tokenizer(text):
    assert _outcome(_positioned, text) == _outcome(_reference, text)

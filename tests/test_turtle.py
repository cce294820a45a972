import io
import string
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energykg.dataset import Dataset
from energykg.errors import EnergyKgError
from energykg.namespaces import RDF_TYPE, SEAS
from energykg.terms import (
    BlankNode,
    Iri,
    Literal,
    PrefixMap,
    Quad,
    quad_key,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
)
from energykg.turtle import (
    TurtleParseError,
    load_turtle,
    parse_turtle,
    serialize_turtle,
)
from energykg.turtle_writer import write_turtle

import naive_turtle

DATA = Path(__file__).parent / "data"

BASE = Iri("http://jresearch.ucd.ie/climate-kg/")
COSSMIC = Iri("http://jresearch.ucd.ie/climate-kg/resource/cossmic/")


def _triple_set(triples):
    return set(triples)


def test_parse_topology_fixture_triple_count():
    text = (DATA / "cossmic_topology.ttl").read_text()
    triples, prefixes = parse_turtle(text)
    # Hand count repeatedly confirms 10 statements in the transcription.
    assert len(triples) == 10
    assert prefixes.base == BASE
    assert prefixes.expand("seas", "x") == Iri("https://w3id.org/seas/x")


def test_topology_fixture_contents():
    text = (DATA / "cossmic_topology.ttl").read_text()
    triples, _ = parse_turtle(text)
    site = Iri(COSSMIC.value + "DE_KN_residential1")
    machine = Iri(COSSMIC.value + "DE_KN_residential1_washing_machine")
    assert (site, RDF_TYPE, SEAS.IndustrialBuilding) in _triple_set(triples)
    assert (machine, RDF_TYPE, SEAS.ElectricPowerConsumer) in _triple_set(triples)
    consumers = [t for t in triples if t[1] == RDF_TYPE and t[2] == SEAS.ElectricPowerConsumer]
    assert [t[0] for t in consumers] == [machine]


def test_match_over_topology_fixture():
    from energykg.dataset import ANY, Dataset

    ds = Dataset()
    load_turtle(ds, (DATA / "cossmic_topology.ttl").read_text())
    hits = ds.match(ANY, RDF_TYPE, SEAS.ElectricPowerConsumer, ANY)
    assert len(hits) == 1
    assert hits[0].subject.value.endswith("washing_machine")


def test_empty_graph_serializes_to_header_only():
    pm = PrefixMap(base=BASE)
    pm.bind("seas", Iri("https://w3id.org/seas/"))
    text = serialize_turtle(Dataset(), None, pm)
    assert text == (
        "@base <http://jresearch.ucd.ie/climate-kg/> .\n"
        "@prefix seas: <https://w3id.org/seas/> .\n"
    )


def test_datetime_literal_serializes_typed():
    ds = Dataset()
    ds.add(
        Quad(
            Iri("http://example.org/e"),
            Iri("http://example.org/at"),
            Literal("2016-05-01T00:00:00Z", XSD_DATETIME),
        )
    )
    pm = PrefixMap()
    pm.bind("xsd", Iri("http://www.w3.org/2001/XMLSchema#"))
    text = serialize_turtle(ds, None, pm)
    assert '"2016-05-01T00:00:00Z"^^xsd:dateTime' in text
    triples, _ = parse_turtle(text)
    assert triples[0][2] == Literal("2016-05-01T00:00:00Z", XSD_DATETIME)


def test_serialization_is_deterministic():
    ds = Dataset()
    for i in (3, 1, 2):
        ds.add(Quad(Iri(f"http://example.org/s{i}"), RDF_TYPE, SEAS.ElectricPowerSystem))
    pm = PrefixMap()
    assert serialize_turtle(ds, None, pm) == serialize_turtle(ds, None, pm)


def test_missing_object_is_a_syntax_error():
    with pytest.raises(TurtleParseError):
        parse_turtle("@prefix x: <http://example.org/> .\nx:y x:z")


def test_error_reports_line_and_column():
    with pytest.raises(TurtleParseError) as excinfo:
        parse_turtle('@prefix p: <http://example.org/> .\np:a p:b "unterminated')
    assert excinfo.value.line == 2


def test_undefined_prefix_named_in_error():
    with pytest.raises(TurtleParseError) as excinfo:
        parse_turtle("nope:a nope:b nope:c .")
    assert "nope" in str(excinfo.value)


def test_comments_and_boolean_and_numbers():
    text = (
        "@prefix p: <http://example.org/> .\n"
        "# a comment line\n"
        "p:s p:int 42 ; p:dec 4.5 ; p:flag true . # trailing comment\n"
    )
    triples, _ = parse_turtle(text)
    objects = {t[2] for t in triples}
    assert Literal("42", XSD_INTEGER) in objects
    assert Literal("4.5", XSD_DECIMAL) in objects


def test_blank_node_labels_scoped_per_document():
    text = "@prefix p: <http://example.org/> .\n_:x p:q _:x .\n"
    first, _ = parse_turtle(text)
    second, _ = parse_turtle(text)
    assert first[0][0] == first[0][2]
    assert first[0][0] == second[0][0]  # deterministic relabelling


def test_base_resolution_of_relative_iris():
    text = "@base <http://example.org/dir/> .\n<a> <b> <../c> .\n"
    triples, _ = parse_turtle(text)
    assert triples[0][0] == Iri("http://example.org/dir/a")
    assert triples[0][2] == Iri("http://example.org/c")


def test_load_turtle_places_triples_in_chosen_graph():
    ds = Dataset()
    graph = Iri("http://example.org/g")
    load_turtle(ds, "<http://example.org/s> <http://example.org/p> 1 .", graph=graph)
    assert len(ds.match(graph=graph)) == 1
    assert ds.match(graph=None) == []


# -- round-trip property -------------------------------------------------------

_iri_suffix = st.text(
    alphabet=string.ascii_letters + string.digits + "/_-.~%#",
    min_size=1,
    max_size=12,
)
_iris = st.builds(lambda s: Iri("http://example.org/" + s.strip("#") if s else "http://example.org/x"), _iri_suffix)

_lexicals = st.text(max_size=20)
_datatypes = st.sampled_from([XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_DATETIME])
_literals = st.builds(Literal, _lexicals, _datatypes)

_terms = st.one_of(_iris, _literals)
_quads = st.builds(lambda s, p, o: Quad(s, p, o, None), _iris, _iris, _terms)


@settings(max_examples=120, deadline=None)
@given(st.lists(_quads, max_size=30))
def test_round_trip_identity_for_blank_node_free_graphs(quads):
    ds = Dataset(quads)
    pm = PrefixMap()
    pm.bind("ex", Iri("http://example.org/"))
    pm.bind("xsd", Iri("http://www.w3.org/2001/XMLSchema#"))
    text = serialize_turtle(ds, None, pm)
    triples, _ = parse_turtle(text)
    assert {(q.subject, q.predicate, q.object) for q in quads} == set(triples)
    assert len(triples) == len(set(triples)) == len(ds)


# -- error positions -----------------------------------------------------------

# Expected values were recorded from the character-at-a-time lexer that the
# regex lexer replaced. Each bad token sits on line 5, after a two-line comment.
_ERROR_HEAD = (
    "# a comment that spans\n"
    "# two lines\n"
    "@prefix p: <http://example.org/> .\n"
    "p:s p:o p:x ;\n"
)
_PINNED_ERRORS = [
    ("unterminated_iri", "    p:q <http://example.org/x .\n", "line 5, column 9: unterminated IRI reference", 5, 9),
    ("unterminated_string", '    p:q 1, "abc', "line 5, column 12: unterminated string literal", 5, 12),
    ("newline_in_string", '  p:q "ok", "ab\ncd" .\n', "line 5, column 13: newline in string literal", 5, 13),
    ("dangling_escape", '    p:q "ab\\', "line 5, column 9: dangling escape in string literal", 5, 9),
    ("truncated_u_escape", '\tp:q "\\u12', "line 5, column 6: truncated unicode escape", 5, 6),
    ("invalid_u_escape", '    p:q "\\uZZZZ" .\n', "line 5, column 9: invalid unicode escape \\uZZZZ", 5, 9),
    ("invalid_U_escape", '    p:q "\\U00110000" .\n', "line 5, column 9: invalid unicode escape \\U00110000", 5, 9),
    ("unknown_escape", '    p:q "a\\tb\\q" .\n', "line 5, column 9: unknown escape sequence \\q", 5, 9),
    ("missing_bnode_label", "    p:q _:b1, _: .\n", "line 5, column 15: missing blank node label", 5, 15),
    ("unexpected_token", "    p:q true, trueX .\n", "line 5, column 15: unexpected token 'trueX'", 5, 15),
    ("unexpected_character", "    p:q ! .\n", "line 5, column 9: unexpected character '!'", 5, 9),
    ("lexical_error_after_parse_error", "    p:q . p:r ! .\n", "line 5, column 15: unexpected character '!'", 5, 15),
    ("expected_dot", "    p:q p:r p:t\n", "line 5, column 13: expected '.', found 'p:t'", 5, 13),
    ("undefined_prefix", "    p:q\n  nope:r .\n", "line 6, column 3: undefined prefix: 'nope'", 6, 3),
    ("relative_iri_without_base", "    p:q <rel> .\n", "line 5, column 9: IRI is not absolute (missing scheme): 'rel'", 5, 9),
    # IRIs, literals and datatypes that the parser's fast paths must leave
    # to the checks that report them.
    ("space_in_absolute_iri", "    p:q <http://example.org/a b> .\n", "line 5, column 9: IRI contains forbidden character ' ' at offset 20: 'http://example.org/a b'", 5, 9),
    ("brace_in_absolute_iri", "    p:q <http://example.org/{x}> .\n", "line 5, column 9: IRI contains forbidden character '{' at offset 19: 'http://example.org/{x}'", 5, 9),
    ("brace_in_absolute_iri_after_base", "    p:q p:r .\n@base <http://example.org/> .\np:s p:q <http://example.org/{x}> .\n", "line 7, column 9: IRI reference contains forbidden character '{' at offset 19: 'http://example.org/{x}'", 7, 9),
    ("space_in_relative_iri_after_base", "    p:q p:r .\n@base <http://example.org/> .\np:s p:q <a b> .\n", "line 7, column 9: IRI reference contains forbidden character ' ' at offset 1: 'a b'", 7, 9),
    ("underscore_in_scheme_without_base", "    p:q <a_b:x> .\n", "line 5, column 9: IRI is not absolute (missing scheme): 'a_b:x'", 5, 9),
    ("space_in_datatype_iri", '    p:q "x"^^<http://example.org/d t> .\n', "line 5, column 14: IRI contains forbidden character ' ' at offset 20: 'http://example.org/d t'", 5, 14),
    ("relative_datatype_without_base", '    p:q "x"^^<dt> .\n', "line 5, column 14: IRI is not absolute (missing scheme): 'dt'", 5, 14),
    ("undefined_datatype_prefix_after_comment", '    p:q "\\u00e9"^^ # c\n nope:dt .\n', "line 6, column 2: undefined prefix: 'nope'", 6, 2),
    ("comment_then_no_datatype", '    p:q "x"^^ # c\n .\n', "line 6, column 2: expected datatype IRI after ^^", 6, 2),
    ("bad_escape_after_known_datatype", '    p:q "a\\"b"^^p:dt, "c\\q"^^p:dt .\n', "line 5, column 23: unknown escape sequence \\q", 5, 23),
]


@pytest.mark.parametrize(
    "tail, message, line, column",
    [case[1:] for case in _PINNED_ERRORS],
    ids=[case[0] for case in _PINNED_ERRORS],
)
def test_error_message_and_position_are_pinned(tail, message, line, column):
    with pytest.raises(TurtleParseError) as excinfo:
        parse_turtle(_ERROR_HEAD + tail)
    assert (str(excinfo.value), excinfo.value.line, excinfo.value.column) == (message, line, column)


def test_out_of_range_long_unicode_escape_is_a_parse_error():
    # chr() raises OverflowError, not ValueError, past 2**31 - 1.
    with pytest.raises(TurtleParseError) as excinfo:
        parse_turtle('<http://example.org/s> <http://example.org/p> "\\UFFFFFFFF" .')
    assert str(excinfo.value) == "line 1, column 47: invalid unicode escape \\UFFFFFFFF"


@pytest.mark.parametrize(
    "escape",
    ["\\u+4_1", "\\u 4 \n", "\\u\u0660\u0660\u0664\u0661", "\\U+0000041", "\\U0000_041"],
    ids=["sign_underscore", "spaces_newline", "non_ascii_digits", "long_sign", "long_underscore"],
)
def test_unicode_escape_takes_exactly_its_ascii_hex_digits(escape):
    # int(s, 16) alone accepts all of these; UCHAR allows only hex digits.
    text = f'<http://example.org/s> <http://example.org/p> "{escape}" .'
    for parse in (parse_turtle, naive_turtle.parse_turtle):
        with pytest.raises(EnergyKgError) as excinfo:
            parse(text)
        assert str(excinfo.value) == f"line 1, column 47: invalid unicode escape {escape}"


def test_each_distinct_iri_is_one_object_per_document():
    text = (
        "@prefix p: <http://example.org/> .\n"
        "p:s p:v <http://example.org/o> .\n"
        "p:s p:v <http://example.org/o>, p:o .\n"
    )
    triples, _ = parse_turtle(text)
    assert triples[0][0] is triples[1][0] is triples[2][0]
    assert triples[0][2] is triples[1][2]
    assert triples[2][2] == Iri("http://example.org/o")


def test_relative_iris_follow_each_base_directive():
    text = (
        "@base <http://a.example/> .\n<s> <p> <o> .\n"
        "@base <http://b.example/> .\n<s> <p> <o> .\n"
    )
    triples, prefixes = parse_turtle(text)
    assert [t[0] for t in triples] == [Iri("http://a.example/s"), Iri("http://b.example/s")]
    assert prefixes.base == Iri("http://b.example/")


# -- differential test against the character-at-a-time parser ------------------

_FRAGMENTS = [
    "@prefix p: <http://example.org/> .",
    "@prefix : <http://example.org/e/> .",
    "@prefix p: <http://example.org/other/> .",
    "@prefix p:x <http://example.org/> .",
    "@base <http://example.org/b/> .",
    "@base <urn:x:y> .",
    "@prefix",
    "@base",
    "@other",
    "p:s",
    "p:o",
    ":x",
    "p:a.b..",
    "p:",
    ":",
    "nope:x",
    "<http://example.org/s>",
    "<rel>",
    "<../up#f>",
    "<http://bad iri>",
    "<http://example.org/{x}>",
    "<HTTP://Example.org/S>",
    "<a+b.c-d:x>",
    "<a_b:x>",
    "<1a:x>",
    "<open",
    '"plain"',
    '"es\\tc\\"q\\""',
    '"\\u0041\\U0001F600"',
    '"\\u 4 \n"',
    '"\\uZZ"',
    '"\\q"',
    '"open',
    '"a\\',
    '"two\nlines"',
    '"x"^^p:dt',
    '"x"^^<http://example.org/dt>',
    '"x"^^"y"',
    '"x"^^ # c\n p:dt',
    '"x"^^\n# c\n<http://example.org/dt>',
    '"x"^^ # c\n',
    '"e\\u00e9"^^p:dt',
    "^^",
    "^",
    "1",
    "-2.5",
    "+3e4",
    "1.",
    "12abc",
    "+",
    "a",
    "true",
    "false",
    "trueX",
    "ab",
    "_:b",
    "_:b1",
    "_:",
    "_",
    ".",
    ";",
    ",",
    "# comment",
    "!",
    "{",
]
_SEPARATORS = ["", " ", "\n", "\t", " ;\n", " .\n"]

_PREFIXES = "@prefix p: <http://example.org/> .\n@prefix : <http://example.org/e/> .\n"
_HEADER = _PREFIXES + "@base <http://example.org/b/> .\n"

_broken_documents = st.tuples(
    st.sampled_from(["", _PREFIXES, _HEADER]),
    st.lists(st.tuples(st.sampled_from(_FRAGMENTS), st.sampled_from(_SEPARATORS)), max_size=14),
).map(lambda doc: doc[0] + "".join(fragment + sep for fragment, sep in doc[1]))

# <HTTP://Example.org/S> and <a+b.c-d:x> are absolute, with an uppercase
# and a "+.-" scheme.
_nodes = st.sampled_from([
    "p:s", ":x", "p:a.b", "<http://example.org/s>", "<rel>", "_:b", "_:c",
    "<HTTP://Example.org/S>", "<a+b.c-d:x>",
])
_verbs = st.sampled_from(["a", "p:v", "<http://example.org/v>", ":w"])
# p:s and <http://example.org/s> are one IRI, and so are the datatypes
# p:dt and <http://example.org/dt>.
_objects = st.one_of(
    _nodes,
    st.sampled_from([
        '"v"', '"v"^^p:dt', '"v"^^<http://example.org/dt>', '"\\u00e9"^^<http://example.org/dt>',
        "4", "-1.5", "2e3", "true",
        # Escaped and untyped, escaped under a datatype seen before, and a
        # comment between "^^" and the datatype.
        '"\\u00e9"', '"a\\"b"', '"\\u00e9"^^p:dt', '"w"^^ # c\n p:dt',
        '"w"^^\n# c\n<http://example.org/dt>',
    ]),
)
_predicate_lists = st.lists(
    st.tuples(_verbs, st.lists(_objects, min_size=1, max_size=3)), min_size=1, max_size=3
).map(lambda pairs: " ;\n    ".join(f"{v} {', '.join(objs)}" for v, objs in pairs))
_statements = st.one_of(
    st.tuples(
        _nodes,
        _predicate_lists,
        st.sampled_from([" .\n", ".\n# note\n", ".", "\n.\t", "\n" + "#" * 40 + "\n."]),
    ).map(
        lambda parts: f"{parts[0]} {parts[1]}{parts[2]}"
    ),
    # A base set mid-document changes what <rel> denotes from there on.
    st.sampled_from(["@base <http://example.org/c/> .\n", "@base <sub/> .\n"]),
)
# Repeating the first two statements repeats their triples, unless a base
# directive changed what <rel> denotes in between. Without a base, <rel>
# is an error.
_valid_documents = st.tuples(
    st.sampled_from([_HEADER, _HEADER, _PREFIXES]), st.lists(_statements, max_size=6)
).map(lambda doc: doc[0] + "".join(doc[1] + doc[1][:2]))


def _outcome(parse, text):
    try:
        triples, prefixes = parse(text)
    except EnergyKgError as exc:
        return type(exc).__name__, str(exc)
    return triples, prefixes.base, prefixes.namespaces()


@settings(max_examples=400, deadline=None)
@given(st.one_of(_valid_documents, _broken_documents))
def test_parse_matches_reference_parser(text):
    assert _outcome(parse_turtle, text) == _outcome(naive_turtle.parse_turtle, text)


def _load_outcome(text):
    ds = Dataset()
    try:
        load_turtle(ds, text)
    except EnergyKgError as exc:
        return type(exc).__name__, str(exc)
    return sorted(ds, key=quad_key)


def _reference_quads(text):
    try:
        triples, _ = naive_turtle.parse_turtle(text)
    except EnergyKgError as exc:
        return type(exc).__name__, str(exc)
    return sorted({Quad(s, p, o) for s, p, o in triples}, key=quad_key)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_valid_documents, _broken_documents))
def test_load_matches_reference_parser(text):
    assert _load_outcome(text) == _reference_quads(text)


# Literals whose lexical forms hold the delimiters of a term's canonical
# text ('"^^<', '>', quotes), newlines or nothing, under custom datatypes,
# and blank nodes: load_turtle and parse_turtle intern each term by that
# text and decode it again, and must agree with the reference parser.
_TURTLE_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})
_tricky_lexicals = st.one_of(
    st.text(alphabet='ab"^<>\\\n\r _:\u00e9', max_size=8),
    st.sampled_from(["", '"^^<', '"^^<http://example.org/dt>', 'x"^^<y>"^^<', ">", '""']),
).map(lambda lexical: '"' + lexical.translate(_TURTLE_ESCAPES) + '"')
_tricky_objects = st.one_of(
    _tricky_lexicals,
    st.tuples(
        _tricky_lexicals,
        st.sampled_from(["p:dt", "<http://example.org/dt>", "<dt>", "<http://example.org/a%3Eb>"]),
    ).map(lambda parts: f"{parts[0]}^^{parts[1]}"),
    st.sampled_from(["_:b", "_:c", "_:b0", "p:o"]),
)
_tricky_documents = st.lists(
    st.tuples(st.sampled_from(["p:s", "_:b", "_:b1", "<rel>"]), _tricky_objects),
    min_size=1,
    max_size=6,
).map(lambda statements: _HEADER + "".join(f"{s} p:v {o} .\n" for s, o in statements))


@settings(max_examples=300, deadline=None)
@given(_tricky_documents)
def test_term_texts_parse_and_load_like_reference_parser(text):
    assert _outcome(parse_turtle, text) == _outcome(naive_turtle.parse_turtle, text)
    assert _load_outcome(text) == _reference_quads(text)


# A line of "#"s or a "# # #" comment after a literal: the lexer must give
# up on a "^^" after it without trying every split of the comment, which
# would take hours at 40 "#"s.
_LONG_COMMENTS = [
    '<http://e/s> <http://e/p> "x"\n' + "#" * 40 + "\n.\n",
    '<http://e/s> <http://e/p> "x" ' + "# " * 40 + "\n.\n",
    '<http://e/s> <http://e/p> "x"' + "#" * 40,
    '<http://e/s> <http://e/p> "x" # c\n ^^ ' + "#" * 40 + "\n<http://e/dt> .\n",
]


@pytest.mark.parametrize("text", _LONG_COMMENTS)
def test_long_comment_after_literal_parses_like_reference(text):
    assert _outcome(parse_turtle, text) == _outcome(naive_turtle.parse_turtle, text)
    assert _load_outcome(text) == _reference_quads(text)


# -- loading into a store --------------------------------------------------------


def test_failed_load_leaves_dataset_unchanged():
    ds = Dataset()
    load_turtle(ds, '@prefix p: <http://example.org/> .\np:s p:v p:o, "x" .\n')
    before = (len(ds), list(ds), ds.graphs(), list(ds.terms()))
    # Valid statements with new terms, in a new graph, then an error.
    text = '@prefix p: <http://example.org/> .\np:s p:v p:new, "y" .\np:t p:v .\n'
    with pytest.raises(TurtleParseError):
        load_turtle(ds, text, graph=Iri("http://example.org/g"))
    assert (len(ds), list(ds), ds.graphs(), ds.terms()) == before
    assert ds.id_of(Iri("http://example.org/new")) is None


def test_equal_terms_in_two_documents_get_one_id():
    ds = Dataset()
    graph = Iri("http://example.org/g")
    load_turtle(ds, '@prefix p: <http://example.org/> .\np:s p:v "1"^^p:n .\n')
    count = len(ds.terms())
    load_turtle(
        ds,
        '<http://example.org/s> <http://example.org/v> "1"^^<http://example.org/n> ;\n'
        "    <http://example.org/w> 1 .\n",
        graph=graph,
    )
    v = ds.id_of(Iri("http://example.org/v"))
    assert ds.triples(None, v, None, graph) == ds.triples(None, None, None, None)
    # Only <w> and the integer 1 are new.
    assert len(ds.terms()) == count + 2


def test_blank_nodes_of_separate_loads_stay_distinct():
    ds = Dataset()
    load_turtle(ds, '_:x <http://example.org/p> "doc1" .\n')
    load_turtle(ds, '_:y <http://example.org/p> "doc2" .\n')
    subjects = {q.object.lexical: q.subject for q in ds}
    # The first document keeps its own numbering; the second is labelled apart.
    assert subjects == {"doc1": BlankNode("b0"), "doc2": BlankNode("b1")}


def test_loaded_blank_nodes_skip_labels_the_dataset_holds():
    ds = Dataset()
    held = Quad(BlankNode("b1"), Iri("http://example.org/p"), Literal("held"))
    ds.add(held)
    text = "_:a <http://example.org/p> _:b .\n_:b <http://example.org/p> _:a .\n"
    load_turtle(ds, text)
    load_turtle(ds, text)
    nodes = {term for q in ds for term in (q.subject, q.object) if isinstance(term, BlankNode)}
    assert nodes == {BlankNode(f"b{i}") for i in range(5)}
    assert len(ds) == 5 and held in ds


# -- the writer against the reference serializer ----------------------------------

_EX = "http://example.org/"
# One namespace is a prefix of another, and one is bound under two labels.
_BINDINGS = [
    ("ex", _EX),
    ("exa", _EX + "a/"),
    ("", _EX + "a/b"),
    ("again", _EX),
    ("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"),
    ("xsd", "http://www.w3.org/2001/XMLSchema#"),
]
# Safe locals, and locals that are not safe prefixed names.
_LOCALS = ["x", "_y", "a-b", "T9", "a/x", "a/bc", "a/b", "a/", "1x", "-x", "a.b", "a#b", "é", ""]
_writer_iris = st.builds(
    lambda ns, local: Iri(ns + local),
    st.sampled_from([_EX, _EX + "a/", "urn:z:"]),
    st.sampled_from(_LOCALS),
)
_writer_literals = st.builds(
    Literal,
    st.one_of(
        st.sampled_from(["", "1.5", 'q"uote', "back\\slash", "new\nline\r\t"]),
        st.text(max_size=8),
    ),
    st.one_of(st.sampled_from([XSD_STRING, XSD_INTEGER, XSD_DATETIME]), _writer_iris),
)
_writer_bnodes = st.builds(BlankNode, st.sampled_from(["b0", "b1", "x"]))
_writer_predicates = st.one_of(st.just(RDF_TYPE), _writer_iris)
_writer_graphs = st.sampled_from([None, Iri(_EX + "g")])
_writer_quads = st.builds(
    Quad,
    st.one_of(_writer_iris, _writer_bnodes),
    _writer_predicates,
    st.one_of(_writer_iris, _writer_literals, _writer_bnodes),
    _writer_graphs,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_writer_quads, max_size=40),
    st.lists(st.sampled_from(_BINDINGS), unique=True).flatmap(st.permutations),
    st.sampled_from([None, BASE]),
    _writer_graphs,
)
def test_writer_matches_reference_serializer(quads, bindings, base, graph):
    ds = Dataset(quads)
    pm = PrefixMap(base=base)
    for label, namespace in bindings:
        pm.bind(label, Iri(namespace))
    expected = naive_turtle.serialize_turtle(ds, graph, pm)
    assert serialize_turtle(ds, graph, pm) == expected
    out = io.StringIO()
    write_turtle(out, ds.texts(), list(chain.from_iterable(ds.triples(None, None, None, graph))), pm)
    assert out.getvalue() == expected

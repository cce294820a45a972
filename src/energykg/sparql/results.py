"""SPARQL 1.1 results serialization: JSON and TSV.

Both read a sequence's rows of term ids and the store's texts, and
render a column at a time: each distinct id of a column once, straight
from its canonical text; a row is then one join of its cells. The JSON
renders a column whose distinct texts are all IRIs, or all literals of
one datatype, in one comprehension, each cell one slice of its text
between the column's head and tail, and any other column a term at a
time. No ``Term``, per-row dict or payload tree is built. The JSON is
the text that ``json.dumps(payload, ensure_ascii=False)`` gives for the
SPARQL 1.1 results payload, its strings escaped by the same
``encode_basestring``: the C function that ``json.encoder`` takes from
``_json``, imported from there so that a query process does not import
the ``json`` package.
"""

from __future__ import annotations

from _json import encode_basestring
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable

from ..terms import XSD_STRING, literal_parts
from .ast import SolutionSequence

_STRING = XSD_STRING.value
# The first character of a canonical text, which tells the term's kind.
_FIRST = itemgetter(0)
# How an IRI's and a literal's JSON objects begin.
_URI = '{"type": "uri", "value": '
_LITERAL = '{"type": "literal", "value": '


def _cells(
    seq: SolutionSequence,
    variables: Iterable[str],
    render: Callable[[str, list[int]], Iterable[str]],
) -> Iterable[tuple[str, ...]]:
    """Each row's cells, one per variable. A bound variable's cells are
    rendered once per distinct id of its column, by ``render(name, ids)``;
    a variable that no row binds has empty cells."""
    names, rows = seq.names, seq.ids
    columns = []
    for name in variables:
        if name not in names:
            columns.append(repeat("", len(rows)))
            continue
        ids = list(map(itemgetter(names.index(name)), rows))
        distinct = list(dict.fromkeys(ids))
        cells = render(name, distinct)
        # Where no id repeats, the distinct ids are the column's, in order.
        if len(distinct) < len(ids):
            cells = map(dict(zip(distinct, cells)).__getitem__, ids)
        columns.append(cells)
    return zip(*columns) if columns else repeat((), len(rows))


def _json_term(text: str) -> str:
    if text[0] == "<":
        return _URI + encode_basestring(text[1:-1]) + "}"
    if text[0] == "_":
        return '{"type": "bnode", "value": ' + encode_basestring(text[2:]) + "}"
    lexical, datatype = literal_parts(text)
    return _LITERAL + encode_basestring(lexical) + _literal_end(datatype)


def _literal_end(datatype: str) -> str:
    """What follows a literal's value in its object: its datatype key,
    which an xsd:string has not, and the closing brace."""
    return "}" if datatype == _STRING else ', "datatype": ' + encode_basestring(datatype) + "}"


def _json_column(key: str, texts: list[str]) -> list[str]:
    """The cells of a column's distinct texts: each the key, given as JSON
    text with its colon, then the term's object. Where every text is an
    IRI's, or a literal's of one datatype, a cell is one slice of its text,
    escaped by ``encode_basestring``, between one head and one tail, built
    in one comprehension with no Python function call per term; any other
    column is rendered a term at a time."""
    kinds = set(map(_FIRST, texts))
    if kinds == {"<"}:
        head = key + _URI
        return [f"{head}{encode_basestring(text[1:-1])}}}" for text in texts]
    if kinds == {'"'}:
        # A datatype IRI holds no '"', so the literals whose texts end as
        # the first one's does are those of its datatype.
        end = texts[0][texts[0].rindex('"^^<') :]
        if all(map(str.endswith, texts, repeat(end))):
            head, tail, cut = key + _LITERAL, _literal_end(end[4:-1]), -len(end)
            return [f"{head}{encode_basestring(text[1:cut])}{tail}" for text in texts]
    return [key + _json_term(text) for text in texts]


def to_results_json(seq: SolutionSequence) -> str:
    text = seq.texts.__getitem__

    def render(name: str, ids: list[int]) -> Iterable[str]:
        return _json_column(encode_basestring(name) + ": ", list(map(text, ids)))

    # Each name once, as a JSON object's keys are; unbound ones are left out.
    keys = [name for name in dict.fromkeys(seq.variables) if name in seq.names]
    cells = _cells(seq, keys, render)
    variables = ", ".join(map(encode_basestring, seq.variables))
    head = '{"head": {"vars": [' + variables + ']}, "results": {"bindings": ['
    # One join builds the text, so no second copy of it is made.
    objects = list(map(", ".join, cells))
    if not objects:
        return head + "]}}"
    objects[0] = head + "{" + objects[0]
    objects[-1] += "}]}}"
    return "}, {".join(objects)


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r", '"': '\\"'})


def _tsv_term(text: str) -> str:
    # An IRI's and a blank node's canonical texts are their TSV forms.
    if text[0] != '"':
        return text
    lexical, datatype = literal_parts(text)
    lexical = lexical.translate(_TSV_ESCAPES)
    if datatype == _STRING:
        return f'"{lexical}"'
    return f'"{lexical}"^^<{datatype}>'


def to_results_tsv(seq: SolutionSequence) -> str:
    text = seq.texts.__getitem__
    cells = _cells(seq, seq.variables, lambda name, ids: map(_tsv_term, map(text, ids)))
    header = "\t".join(["?" + name for name in seq.variables])
    return "\n".join([header, *map("\t".join, cells), ""])

"""SPARQL 1.1 results serialization: JSON and TSV.

Both read a sequence's rows of term ids and the store's texts, and
render each distinct id's fragment once, straight from its canonical
text; a row is then one join of its cells. No ``Term``, per-row dict or
payload tree is built. The JSON is the text that ``json.dumps(payload,
ensure_ascii=False)`` gives for the SPARQL 1.1 results payload, its
strings escaped by the same ``encode_basestring``.
"""

from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Callable, Iterable

from ..terms import XSD_STRING, literal_parts
from .ast import SolutionSequence

_STRING = XSD_STRING.value


class _Memo(dict):
    """A function's value for each key, computed when first asked for."""

    def __init__(self, function: Callable[[int], str]) -> None:
        self.function = function

    def __missing__(self, key: int) -> str:
        value = self[key] = self.function(key)
        return value


def _cells(
    seq: SolutionSequence, variables: Iterable[str], column: Callable[[str], _Memo]
) -> Iterable[tuple[str, ...]]:
    """Each row's cells, one per variable: ``column(name)`` gives a bound
    variable's cells by id, and a variable that no row binds has empty cells."""
    names, rows = seq.names, seq.ids
    columns = [
        map(column(name).__getitem__, map(itemgetter(names.index(name)), rows))
        if name in names
        else repeat("", len(rows))
        for name in variables
    ]
    return zip(*columns) if columns else repeat((), len(rows))


def _json_term(text: str) -> str:
    if text[0] == "<":
        return '{"type": "uri", "value": ' + encode_basestring(text[1:-1]) + "}"
    if text[0] == "_":
        return '{"type": "bnode", "value": ' + encode_basestring(text[2:]) + "}"
    lexical, datatype = literal_parts(text)
    value = '{"type": "literal", "value": ' + encode_basestring(lexical)
    if datatype == _STRING:
        return value + "}"
    return value + ', "datatype": ' + encode_basestring(datatype) + "}"


def to_results_json(seq: SolutionSequence) -> str:
    texts = seq.texts
    fragment = _Memo(lambda i: _json_term(texts[i]))

    def column(name: str) -> _Memo:
        key = encode_basestring(name) + ": "
        return _Memo(lambda i: key + fragment[i])

    # Each name once, as a JSON object's keys are; unbound ones are left out.
    keys = [name for name in dict.fromkeys(seq.variables) if name in seq.names]
    cells = _cells(seq, keys, column)
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
    texts = seq.texts
    fragment = _Memo(lambda i: _tsv_term(texts[i]))
    lines = map("\t".join, _cells(seq, seq.variables, lambda name: fragment))
    header = "\t".join(["?" + name for name in seq.variables])
    return "\n".join([header, *lines, ""])

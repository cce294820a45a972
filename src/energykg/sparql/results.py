"""SPARQL 1.1 results serialization: JSON and TSV.

Both read a sequence's rows of term ids and the store's texts, and
render each distinct id's fragment once, straight from its canonical
text; a row is then one join of its cells. No ``Term``, per-row dict or
payload tree is built. The JSON is the text that ``json.dumps(payload,
ensure_ascii=False)`` gives for the SPARQL 1.1 results payload, its
strings escaped by the same ``encode_basestring``: the C function that
``json.encoder`` takes from ``_json``, imported from there so that a
query process does not import the ``json`` package.
"""

from __future__ import annotations

from _json import encode_basestring
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable

from ..terms import XSD_STRING, literal_parts
from .ast import SolutionSequence

_STRING = XSD_STRING.value


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
        columns.append(map(dict(zip(distinct, render(name, distinct))).__getitem__, ids))
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
    text = seq.texts.__getitem__

    def render(name: str, ids: list[int]) -> Iterable[str]:
        return map((encode_basestring(name) + ": ").__add__, map(_json_term, map(text, ids)))

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

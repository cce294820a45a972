"""Deterministic Turtle writer over canonical term texts.

``write_turtle`` takes the flat canonical texts (``<iri>``,
``"lexical"^^<datatype>`` or ``_:label``) of the subject, predicate and
object of each triple in turn, repeats allowed and in any order, so a
writer needs no store nor term ids: ``uplift`` and ``climate`` hand it
their generators' texts. It ranks the distinct texts once, with one sort
of their set and a dict from text to rank, sorts the triples by (subject
rank, predicate IRI, object rank) and drops the repeats that the sort
makes adjacent. Equal graphs therefore give byte-identical text.

Every term is rendered at once, in rank order, where literals, IRIs and
blank nodes are three contiguous ranges: a literal's lexical form is
split off with ``str.rpartition`` and escaped with ``str.translate``,
with one suffix per distinct datatype, and IRIs are compacted one
namespace at a time, longest first, over the ``bisect`` range of the
texts under it. Ranking, rendering, sorting and numbering the document
loop in C, not once per term or per triple in Python. One plain loop
stays, where its C-level forms measured about twice as slow: the flat
pass that lays out the subject blocks, a bounded chunk of triples at a
time.

The writer returns the document order, in which a parse of the text
numbers the terms and emits the triples: the ranks in order of first
appearance in the written subject, predicate, object sequence, taken
with ``dict.fromkeys``. ``snapshot.py`` writes a file's sidecar from it.
``serialize_turtle`` writes one graph of a ``Dataset`` into a string.
"""

from __future__ import annotations

import io
import re
from bisect import bisect_left
from itertools import chain, compress, count, filterfalse, groupby, islice
from operator import itemgetter, methodcaller
from typing import Sequence, TextIO

from .dataset import Dataset
from .namespaces import RDF_TYPE
from .terms import XSD_STRING, GraphName, PrefixMap, term_key

_SAFE_LOCAL = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_RDF_TYPE_TEXT = term_key(RDF_TYPE)
_FIRST, _THIRD = itemgetter(0), itemgetter(2)
# A literal's text as its opening quote and lexical form, '"^^<', and
# its datatype's value and ">": a datatype IRI holds no '"'.
_SPLIT = methodcaller("rpartition", '"^^<')
_ESCAPE = methodcaller("translate", _ESCAPES)
_UNQUOTED = itemgetter(slice(1, None))
# An "<iri>" text's IRI.
_IRI = itemgetter(slice(1, -1))
_LAST_CHAR = chr(0x10FFFF)
# Triples per write, which bounds the text held at once.
_CHUNK = 4096


def _compacted(iris: list[str], prefixes: PrefixMap) -> list[str]:
    """The Turtle text of each IRI of a sorted list of distinct ``<iri>``
    texts: the prefixed name under the longest namespace that leaves a
    safe local part, the earlier bound among equally long ones, or else
    the text itself."""
    names: dict[str, str] = {}
    namespaces = sorted(prefixes.namespaces().items(), key=lambda entry: -len(entry[1].value))
    for label, namespace in namespaces:
        start = "<" + namespace.value
        # The texts that start with ``start`` run up to the first text at
        # or past it with its last character stepped to the next; U+10FFFF
        # has no next, so trailing ones are dropped and the one before stepped.
        stem = start.rstrip(_LAST_CHAR)
        first = bisect_left(iris, start)
        under = iris[first : bisect_left(iris, stem[:-1] + chr(ord(stem[-1]) + 1), first)]
        local = itemgetter(slice(len(start), -1))
        safe = compress(under, map(_SAFE_LOCAL.fullmatch, map(local, under)))
        fresh = list(filterfalse(names.__contains__, safe))
        names.update(zip(fresh, map(f"{label}:".__add__, map(local, fresh))))
    return list(map(names.get, iris, iris))


def _literals(literals: list[str], prefixes: PrefixMap) -> list[str]:
    """The Turtle text of each literal text."""
    parts = list(map(_SPLIT, literals))
    datatypes = sorted(set(map(_THIRD, parts)))
    suffixes = dict(
        zip(datatypes, map("^^".__add__, _compacted(["<" + d for d in datatypes], prefixes)))
    )
    suffixes[XSD_STRING.value + ">"] = ""
    lexicals = map(_ESCAPE, map(_UNQUOTED, map(_FIRST, parts)))
    return list(map('"{}"{}'.format, lexicals, map(suffixes.__getitem__, map(_THIRD, parts))))


def write_turtle(
    handle: TextIO, texts: Sequence[str], prefixes: PrefixMap
) -> tuple[list[str], list[int]]:
    """Write the triples to a text handle as deterministic Turtle.

    ``texts`` holds the canonical text of each triple's subject,
    predicate and object in turn; a triple may come more than once, and
    in any order. Subjects and objects come in canonical (text) order and
    each subject's predicates by IRI.

    Returns the document order: the texts of the terms written, in order
    of first appearance as subject, predicate, then object, and each
    written triple's subject, predicate and object in turn as positions
    in that list. These are the orders in which parsing the text numbers
    the terms and emits the triples.
    """
    head = []
    if prefixes.base is not None:
        head.append(f"@base <{prefixes.base.value}> .\n")
    for label, namespace in prefixes.namespaces().items():
        head.append(f"@prefix {label}: <{namespace.value}> .\n")
    if not head and not texts:
        handle.write("\n")
        return [], []
    handle.write("".join(head))

    # Each distinct text once, in canonical order, and its rank.
    rank_texts = sorted(set(texts))
    rank = dict(zip(rank_texts, count())).__getitem__
    # Literals, then IRIs, then blank nodes: '"' < '<' < '_'.
    iris, blanks = bisect_left(rank_texts, "<"), bisect_left(rank_texts, "_")
    rendered = _literals(rank_texts[:iris], prefixes)
    rendered += _compacted(rank_texts[iris:blanks], prefixes)
    rendered += rank_texts[blanks:]

    # By IRI, which is not the order of the "<iri>" texts: "<a>" sorts after "<a!>".
    predicates = sorted(set(islice(texts, 1, None, 3)), key=_IRI)
    place = dict(zip(predicates, count())).__getitem__
    # (subject rank, predicate place, object rank), built and sorted in C;
    # repeats end up adjacent, and one of each is kept.
    ordered = sorted(
        zip(
            map(rank, islice(texts, 0, None, 3)),
            map(place, islice(texts, 1, None, 3)),
            map(rank, islice(texts, 2, None, 3)),
        )
    )
    ordered = list(map(_FIRST, groupby(ordered)))
    predicate_ranks = list(map(rank, predicates))
    del rank

    # One flat pass, which writes a chunk of triples at a time. A triple
    # that starts a subject's block ends the block before it.
    verbs = [
        "a " if p == _RDF_TYPE_TEXT else rendered[r] + " " for p, r in zip(predicates, predicate_ranks)
    ]
    subject = verb = None
    end = ""
    for start in range(0, len(ordered), _CHUNK):
        parts = []
        for s, p, o in ordered[start : start + _CHUNK]:
            if s != subject:
                parts.append(f"{end}\n{rendered[s]}\n    {verbs[p]}{rendered[o]}")
                subject, verb, end = s, p, " .\n"
            elif p != verb:
                parts.append(f" ;\n    {verbs[p]}{rendered[o]}")
                verb = p
            else:
                parts.append(", " + rendered[o])
        handle.write("".join(parts))
    handle.write(end)
    # The renderings are not held while the document order is built.
    del rendered, verbs

    # The written triples' ranks, each predicate's place replaced by its rank.
    written = list(chain.from_iterable(ordered))
    del ordered
    written[1::3] = map(predicate_ranks.__getitem__, written[1::3])
    # Each written rank's document id, numbered by first appearance.
    document = dict(zip(dict.fromkeys(written), count()))
    return list(map(rank_texts.__getitem__, document)), list(map(document.__getitem__, written))


def serialize_turtle(ds: Dataset, graph: GraphName, prefixes: PrefixMap) -> str:
    """One graph of the dataset as deterministic Turtle text."""
    out = io.StringIO()
    ids = chain.from_iterable(ds.triples(None, None, None, graph))
    write_turtle(out, list(map(ds.texts().__getitem__, ids)), prefixes)
    return out.getvalue()

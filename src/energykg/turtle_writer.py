"""Deterministic Turtle writer over term texts and id triples.

``write_turtle`` takes a term dictionary's canonical texts (``<iri>``,
``"lexical"^^<datatype>`` or ``_:label``, listed by id) and a flat
sequence of id triples, repeats allowed and in any order, so a writer
needs no store: ``uplift`` and ``climate`` mint straight into these. It
ranks the ids by text, sorts the triples by (subject rank, predicate IRI,
object rank), drops the repeats that the sort makes adjacent, renders
each term's text once (an IRI compacted against the prefixes, longest
namespace first) and writes one subject block at a time to a text
handle. Equal graphs therefore give byte-identical text.

Each term is rendered where it first appears, the subject before its
predicates and objects, so the renderings fill in the order in which a
parse of the text numbers the terms. The writer returns that document
order and the triples in document ids, from which ``snapshot.py`` writes
a file's sidecar. ``serialize_turtle`` writes one graph of a ``Dataset``
into a string.
"""

from __future__ import annotations

import io
import re
from itertools import chain, count, groupby, islice
from operator import itemgetter
from typing import Iterator, Optional, Sequence, TextIO

from .dataset import Dataset, text_order
from .namespaces import RDF_TYPE
from .terms import XSD_STRING, GraphName, PrefixMap, literal_parts, term_key

_SAFE_LOCAL = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")
_LOCAL_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_RDF_TYPE_TEXT = term_key(RDF_TYPE)
_FIRST, _SECOND, _THIRD = itemgetter(0), itemgetter(1), itemgetter(2)


class _Rendered(dict):
    """Key to the Turtle text of the term whose canonical text is
    ``texts[key]``, rendered on first lookup.

    An IRI is compacted against the namespaces longest first, so the
    first one that leaves a safe local part is the longest such; among
    namespaces of equal length the earlier bound wins.
    """

    def __init__(self, texts: list[str], prefixes: PrefixMap) -> None:
        super().__init__()
        self._texts = texts
        namespaces = [(label, ns.value) for label, ns in prefixes.namespaces().items()]
        self._namespaces = sorted(namespaces, key=lambda entry: -len(entry[1]))

    def __missing__(self, key: int) -> str:
        text = self._texts[key]
        if text[0] == "<":
            # An IRI no prefix compacts is written as its canonical text.
            rendered = self._compact(text[1:-1]) or text
        elif text[0] == "_":
            rendered = text
        else:
            lexical, datatype = literal_parts(text)
            rendered = f'"{lexical.translate(_ESCAPES)}"'
            if datatype != XSD_STRING.value:
                rendered = f"{rendered}^^{self._compact(datatype) or f'<{datatype}>'}"
        self[key] = rendered
        return rendered

    def _compact(self, value: str) -> Optional[str]:
        """The prefixed name that writes the IRI, or None if there is none."""
        # A safe local part lies within the IRI's tail of local-name characters.
        tail = len(value.rstrip(_LOCAL_CHARS))
        for label, namespace in self._namespaces:
            if len(namespace) < tail:
                break
            if value.startswith(namespace):
                local = value[len(namespace):]
                if _SAFE_LOCAL.match(local):
                    return f"{label}:{local}"
        return None


def write_turtle(
    handle: TextIO, texts: Sequence[str], triples: Sequence[int], prefixes: PrefixMap
) -> tuple[list[str], Iterator[int]]:
    """Write the triples to a text handle as deterministic Turtle, one
    subject block at a time.

    ``texts`` lists canonical term texts by id. ``triples`` holds the
    subject, predicate and object id of each triple in turn; a triple
    may come more than once, and in any order. Subjects and objects come
    in canonical (text) order and each subject's predicates by IRI. Each
    term is rendered once.

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
    if not head and not triples:
        handle.write("\n")
        return [], iter(())
    handle.write("".join(head))

    order, ranks = text_order(texts)
    # The texts of a term dictionary are distinct: each rank's text.
    rank_texts = list(map(texts.__getitem__, order))
    # Its ids are int objects of their own: free them before the triples sort.
    del order
    # By IRI, which is not the order of the "<iri>" texts: "<a>" sorts after "<a!>".
    predicates = sorted(set(islice(triples, 1, None, 3)), key=lambda p: texts[p][1:-1])
    predicate_ranks = [ranks[p] for p in predicates]
    rank = ranks.__getitem__
    # (subject rank, predicate position, object rank), built and sorted in C;
    # repeats end up adjacent, and one of each is kept.
    ordered = sorted(
        zip(
            map(rank, islice(triples, 0, None, 3)),
            map(dict(zip(predicates, count())).__getitem__, islice(triples, 1, None, 3)),
            map(rank, islice(triples, 2, None, 3)),
        )
    )
    ordered = list(map(_FIRST, groupby(ordered)))

    text = _Rendered(rank_texts, prefixes)
    type_position = next(
        (i for i, p in enumerate(predicates) if texts[p] == _RDF_TYPE_TEXT), None
    )
    # Each term is rendered where it first appears, rdf:type too where it
    # is written "a", so the renderings fill in document order.
    for s, subject_triples in groupby(ordered, _FIRST):
        subject = text[s]
        verbs = []
        for p, objects in groupby(subject_triples, _SECOND):
            verb = text[predicate_ranks[p]]
            if p == type_position:
                verb = "a"
            verbs.append(f"{verb} " + ", ".join([text[o] for _, _, o in objects]))
        handle.write(f"\n{subject}\n    " + " ;\n    ".join(verbs) + " .\n")

    # Each rank's document id; the triples share these int objects.
    document = [0] * len(texts)
    for position, r in enumerate(text):
        document[r] = position
    term = document.__getitem__
    predicate = [document[r] for r in predicate_ranks].__getitem__
    ids = chain.from_iterable(
        zip(
            map(term, map(_FIRST, ordered)),
            map(predicate, map(_SECOND, ordered)),
            map(term, map(_THIRD, ordered)),
        )
    )
    return list(map(rank_texts.__getitem__, text)), ids


def serialize_turtle(ds: Dataset, graph: GraphName, prefixes: PrefixMap) -> str:
    """One graph of the dataset as deterministic Turtle text."""
    out = io.StringIO()
    triples = list(chain.from_iterable(ds.triples(None, None, None, graph)))
    write_turtle(out, ds.texts(), triples, prefixes)
    return out.getvalue()

"""In-memory quad store over a term dictionary.

Each distinct term is interned once to an int id, in insertion order,
keyed by its canonical text (``terms.term_key``: ``<iri>``,
``"lexical"^^<datatype>`` or ``_:label``), so the dictionary read in key
order is also the id-to-text list. A ``Term`` object is decoded from its
text only when something reads it, and then kept. Each graph keeps its
triples as ``(s, p, o)`` id tuples in a set, plus one index per position
from an id to the triples holding it there, in the manner of Hexastore
(Weiss, Karras and Bernstein, VLDB 2008). Each id also has a rank, its
position in the sorted order of the texts, so the canonical sort
compares ints. Ranks are built at ``freeze()``; before it, when first
read and again once new terms have arrived.

Id triples enter a graph through one insert, ``add_ids``.
``add_triples`` streams into it, interning each term as it is read.
``load_turtle`` parses a whole Turtle document straight into canonical
texts and ids inside ``interning()``, which drops the terms a failed
block added, and inserts them once the document has parsed; it interns
each new text with the dictionary's ``setdefault`` rather than a lookup
that calls ``TermIds.__missing__``. A snapshot sidecar (``snapshot.py``)
interns a whole file's texts at once with ``TermIds.intern_all``, which
into an empty dictionary is one ``update``, and inserts its triples
through ``add_ids`` in the parse's order, so the store is the same.

A Dataset is built single-threaded, then frozen; a frozen dataset is a
snapshot that any number of readers may share. Its only writes are to
the cache of decoded terms, where two readers racing on one id store
equal terms. Quads have set semantics: inserting a duplicate is a no-op.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Union

from .errors import EnergyKgError
from .terms import GraphName, Iri, Quad, Term, decode_term, term_key


class _Any:
    def __repr__(self) -> str:
        return "ANY"


ANY = _Any()

Pattern = Union[Term, None, _Any]
IdTriple = tuple[int, int, int]


class TermIds(dict):
    """Canonical term text to id; looking up a new text gives it the next
    free id. Called with a term, it does the same for the term's text.
    ``texts`` lists the texts by id, so a new text's id is ``len(texts)``:
    a bulk reader (the Turtle parser) interns with ``setdefault(text,
    len(texts))`` and appends the text when it got that id, which skips
    the Python-level ``__missing__`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.texts: list[str] = []

    def __missing__(self, text: str) -> int:
        term_id = self[text] = len(self.texts)
        self.texts.append(text)
        return term_id

    def __call__(self, term: Term) -> int:
        return self[term_key(term)]

    def intern_all(self, texts: list[str]) -> list[int]:
        """Intern the texts in order, as looking each up would; their ids
        in that order. The ids are the dictionary's own int objects, so
        triples built from them share them."""
        known = self.texts
        if not known:
            # Distinct texts are all new: each one's id is its position.
            ids = list(range(len(texts)))
            self.update(zip(texts, ids))
            if len(self) == len(texts):
                known.extend(texts)
                return ids
            self.clear()
        ids = []
        for text in texts:
            term_id = self.setdefault(text, len(known))
            if term_id == len(known):
                known.append(text)
            ids.append(term_id)
        return ids


class FrozenDatasetError(EnergyKgError):
    """Mutation attempted after freeze()."""


class _Graph:
    """One graph's id triples, indexed by subject, predicate and object."""

    __slots__ = ("triples", "index")

    def __init__(self) -> None:
        self.triples: set[IdTriple] = set()
        self.index: tuple[dict[int, list[IdTriple]], ...] = ({}, {}, {})

    def match(self, s: Optional[int], p: Optional[int], o: Optional[int]) -> list[IdTriple]:
        buckets = [
            index.get(key, []) for index, key in zip(self.index, (s, p, o)) if key is not None
        ]
        if not buckets:
            return list(self.triples)
        bucket = min(buckets, key=len)
        if len(buckets) == 1:
            return bucket
        return [
            t
            for t in bucket
            if (s is None or t[0] == s) and (p is None or t[1] == p) and (o is None or t[2] == o)
        ]


def _graph_key(graph: GraphName) -> str:
    return "" if graph is None else graph.value


class Dataset:
    def __init__(self, quads: Iterable[Quad] = ()) -> None:
        self._ids = TermIds()
        self._decoded: dict[int, Term] = {}
        self._ranks: list[int] = []
        self._graphs: dict[GraphName, _Graph] = {}
        self._frozen = False
        self.add_all(quads)

    def add(self, quad: Quad) -> None:
        self.add_triples(((quad.subject, quad.predicate, quad.object),), quad.graph)

    def add_all(self, quads: Iterable[Quad]) -> None:
        for graph, group in groupby(quads, attrgetter("graph")):
            self.add_triples(((q.subject, q.predicate, q.object) for q in group), graph)

    def add_triples(
        self, triples: Iterable[tuple[Term, Iri, Term]], graph: GraphName = None
    ) -> None:
        """Insert (subject, predicate, object) terms into one graph."""
        # Keying a term by its text costs about what hashing the term does,
        # so a memo of terms seen in this call would not pay for itself.
        intern = self._ids.__getitem__
        key = term_key
        self.add_ids(
            ((intern(key(s)), intern(key(p)), intern(key(o))) for s, p, o in triples), graph
        )

    @contextmanager
    def interning(self) -> Iterator[TermIds]:
        """Yield the term dictionary: called with a term, or indexed by a
        canonical text, it gives the id, a new term the next free one. If
        the block raises, the terms it added are dropped again, so every
        id stays held by some quad."""
        if self._frozen:
            raise FrozenDatasetError("dataset is frozen")
        ids = self._ids
        mark = len(ids)
        try:
            yield ids
        except BaseException:
            # Dicts keep insertion order, so the newest ids pop first.
            while len(ids) > mark:
                ids.popitem()
            del ids.texts[mark:]
            # The lazy caches may have been filled inside the block.
            self._decoded = {i: t for i, t in self._decoded.items() if i < mark}
            self._ranks = []
            raise

    def add_ids(self, triples: Iterable[IdTriple], graph: GraphName = None) -> None:
        """Insert id triples, with ids from the term dictionary, into one graph."""
        if self._frozen:
            raise FrozenDatasetError("dataset is frozen")
        store = self._graphs.get(graph)
        if store is None:
            store = self._graphs[graph] = _Graph()
        seen = store.triples
        by_s, by_p, by_o = store.index
        for triple in triples:
            if triple not in seen:
                seen.add(triple)
                by_s.setdefault(triple[0], []).append(triple)
                by_p.setdefault(triple[1], []).append(triple)
                by_o.setdefault(triple[2], []).append(triple)

    def freeze(self) -> "Dataset":
        # Build the ranks now, so readers of the snapshot never build them.
        self.ranks()
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __len__(self) -> int:
        return sum(len(store.triples) for store in self._graphs.values())

    def __contains__(self, quad: object) -> bool:
        if not isinstance(quad, Quad) or quad.graph not in self._graphs:
            return False
        triple = (self.id_of(quad.subject), self.id_of(quad.predicate), self.id_of(quad.object))
        return triple in self._graphs[quad.graph].triples

    def __iter__(self) -> Iterator[Quad]:
        term = self.term
        for graph, store in self._graphs.items():
            for s, p, o in store.triples:
                yield Quad(term(s), term(p), term(o), graph)

    def graphs(self) -> list[Iri]:
        """Named graphs present, in canonical order."""
        return sorted(
            (g for g, store in self._graphs.items() if g is not None and store.triples),
            key=_graph_key,
        )

    def match(
        self,
        subject: Pattern = ANY,
        predicate: Pattern = ANY,
        object: Pattern = ANY,
        graph: Union[GraphName, _Any] = ANY,
    ) -> list[Quad]:
        """All quads matching the bound positions, in canonical order.

        ``ANY`` is the wildcard; ``graph=None`` addresses the default
        graph. Each graph answers from its narrowest index bucket.
        """
        # A term no quad holds gets -1, an id that matches nothing.
        ids = self._ids
        key = [None if t is ANY else ids.get(term_key(t), -1) for t in (subject, predicate, object)]
        names = sorted(self._graphs, key=_graph_key) if graph is ANY else [graph]
        term = self.term
        ranks = self.ranks()
        out: list[Quad] = []
        for name in names:
            found = self.triples(*key, name)
            found = sorted(found, key=lambda t: (ranks[t[0]], ranks[t[1]], ranks[t[2]]))
            out.extend(Quad(term(s), term(p), term(o), name) for s, p, o in found)
        return out

    # -- id-level access, for the query evaluator and the serializer ---------

    def id_of(self, term: Term) -> Optional[int]:
        """The term's id, or None when no quad holds it."""
        return self._ids.get(term_key(term))

    def term(self, term_id: int) -> Term:
        """The term with the id, decoded from its text when first read."""
        term = self._decoded.get(term_id)
        if term is None:
            term = self._decoded[term_id] = decode_term(self._ids.texts[term_id])
        return term

    def terms(self) -> list[Term]:
        """Every interned term, indexed by its id. This decodes them all;
        a reader of a few ids calls ``term``."""
        return list(map(self.term, range(len(self._ids))))

    def texts(self) -> list[str]:
        """Every interned term's canonical text, indexed by its id. The
        list is the dictionary's own: do not change it."""
        return self._ids.texts

    def ranks(self) -> list[int]:
        """Each id's position in canonical text order, indexed by id."""
        texts = self._ids.texts
        if len(self._ranks) != len(texts):
            ranks = [0] * len(texts)
            for rank, term_id in enumerate(sorted(range(len(texts)), key=texts.__getitem__)):
                ranks[term_id] = rank
            self._ranks = ranks
        return self._ranks

    def graph(self, graph: GraphName) -> Optional[_Graph]:
        """One graph's id triples and position indexes, or None when the
        dataset has no such graph. For readers: do not change them."""
        return self._graphs.get(graph)

    def triples(
        self, s: Optional[int], p: Optional[int], o: Optional[int], graph: GraphName
    ) -> list[IdTriple]:
        """Id triples of one graph matching the bound ids (None is the
        wildcard), unsorted. The list may be the index's own: do not change it."""
        store = self._graphs.get(graph)
        return [] if store is None else store.match(s, p, o)

    def bucket_size(self, position: int, key: Optional[int], graph: GraphName) -> float:
        """Triples of one graph with id key at position (0 subject, 1
        predicate, 2 object); for key None, the mean over that position's ids."""
        store = self._graphs.get(graph)
        if store is None:
            return 0
        index = store.index[position]
        if key is None:
            return len(store.triples) / len(index) if index else 0
        return len(index.get(key, ()))

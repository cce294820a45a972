"""In-memory quad store over a term dictionary.

Each distinct term is interned once to an int id, in insertion order,
keyed by its canonical text (``terms.term_key``: ``<iri>``,
``"lexical"^^<datatype>`` or ``_:label``), so the dictionary read in key
order is also the id-to-text list. A ``Term`` object is decoded from its
text each time something reads it, and never kept by the store; a reader
that meets an id many times memoises its own decodes. The texts are
distinct and never empty, so the canonical order of ids is the order of
their texts.

Each graph is kept in one frozen, columnar form (``_Graph``), as RDF-3X
(Neumann and Weikum, VLDB 2008) and HDT (Fernandez et al., J. Web
Semantics 2013) keep theirs: its distinct ``(s, p, o)`` id triples once,
as three columns, the subjects', predicates' and objects' ids indexed by
triple number, in an order that keeps each subject's triples together
(a written document's order already does, and a parsed graph's triples
are sorted by subject when it does not); the columns hold the
dictionary's own int objects, so a triple is three list slots and no
object of its own. For each position the graph keeps one ``grouping``:
the triple numbers in that position's run order, each run's start, and
a run table, a flat ``array('i')`` indexed by term id holding the id's
run number or -1, filled in C. So the bucket of any id at any position
is one lookup and one range of triple numbers: at the subject the run's
own range, at the predicate and the object a slice of the order; a
reader reads from the columns only the positions it needs, and triples
become tuples only for the callers that ask for them. A term that no
quad holds has no id and matches nothing before any table is read.

A Dataset is built, frozen, then read. It is built single-threaded:
term texts are interned inside ``interning()``, and triples inserted
with ``add_ids`` collect in one insertion-ordered dict per graph.
``freeze()`` is the one place where such a graph is grouped, with sorts
keyed in C, and where every graph's run tables are widened to
every id, so that a sidecar's graph loaded before a later file interned
more terms is probed with those ids too. A frozen dataset is a snapshot
that any number of readers may share, and no read writes to it; reading
one that is not frozen raises ``UnfrozenDatasetError``, and inserting
into one that is raises ``FrozenDatasetError``. Quads have set
semantics: inserting a duplicate is a no-op.

``load_turtle`` parses a whole Turtle document straight into
canonical texts and ids inside ``interning()``, which drops the terms a
failed block added, and inserts them once the document has parsed; it
interns each new text with the dictionary's ``setdefault`` rather than a
lookup that calls ``TermIds.__missing__``. A snapshot sidecar
(``snapshot.py``) interns a whole file's texts at once with
``TermIds.intern_all``, which into an empty dictionary is one ``update``,
and hands its three columns and its stored groupings, their run ids
mapped to the dictionary's, to ``add_graph``, which fills the run tables straight
from them; so no triple is looked at one at a time in Python, and the
store is the same as the parse's, bucket for bucket, whichever ids the
file's terms had.

Writing needs no Dataset, nor a ``TermIds``: ``uplift`` and ``climate``
hand their generators' texts, three per triple, to
``turtle_writer.write_turtle``, which ranks the distinct texts once and
drops repeated triples by sorting them.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from itertools import count, filterfalse, islice, repeat
from operator import itemgetter, ne, setitem
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import EnergyKgError
from .terms import GraphName, Iri, Quad, Term, decode_term, term_key


class _Any:
    def __repr__(self) -> str:
        return "ANY"


ANY = _Any()

Pattern = Union[Term, None, _Any]
IdTriple = tuple[int, int, int]
# A graph's subject, predicate and object ids, each indexed by triple number.
Columns = tuple[list[int], list[int], list[int]]


class TermIds(dict):
    """Canonical term text to id; looking up a new text gives it the next
    free id. A ``Dataset`` keeps one, and ``turtle.parse_turtle`` one of
    its own. ``texts`` lists the texts by id, so a new text's id is
    ``len(texts)``: a bulk reader (the Turtle parser) interns with
    ``setdefault(text, len(texts))`` and appends the text when it got
    that id, which skips the Python-level ``__missing__`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.texts: list[str] = []

    def __missing__(self, text: str) -> int:
        term_id = self[text] = len(self.texts)
        self.texts.append(text)
        return term_id

    def intern_all(self, texts: list[str]) -> list[int]:
        """Intern the texts in order, as looking each up would; their ids
        in that order. The ids are the dictionary's own int objects, so
        triples built from them share them. Each step loops in C."""
        known = self.texts
        if not known:
            # Distinct texts are all new: each one's id is its position.
            ids = list(range(len(texts)))
            self.update(zip(texts, ids))
            if len(self) == len(texts):
                known.extend(texts)
                return ids
            self.clear()
        fresh = list(dict.fromkeys(filterfalse(self.__contains__, texts)))
        self.update(zip(fresh, range(len(known), len(known) + len(fresh))))
        known.extend(fresh)
        return list(map(self.__getitem__, texts))


# Triple numbers ordered by one position's id (None where that is the
# triples' own order), then the distinct ids in that order and where each
# one's run starts, then the triple count.
Grouping = tuple[Optional[Sequence[int]], Iterable[int], Sequence[int]]

# Array typecodes of four-byte unsigned and signed ints.
U32 = "I" if array("I").itemsize == 4 else "L"
I32 = "i" if array("i").itemsize == 4 else "l"
# One run-table entry for an id that no triple holds.
_NO_RUNS = array(I32, [-1])


def grouping(column: Sequence[int], grouped: bool = False) -> Grouping:
    """The grouping of triples by their ids at one position, ``column``
    listing those ids by triple number: the triple numbers sorted stably
    by that id, so that each id's triples form one run in triple order;
    the distinct ids in that order; and each run's start, then the count.
    When the column is ``grouped`` already, each id's triples contiguous,
    as the subjects of a written document are, its order is kept. Each
    step loops in C."""
    order = range(len(column)) if grouped else sorted(range(len(column)), key=column.__getitem__)
    # Each id's last place in that order, plus one: where its run ends.
    ends = dict(zip(column if grouped else map(column.__getitem__, order), count(1)))
    return order, list(ends), [0, *ends.values()]


def run_table(keys: Iterable[int], ids: int) -> array:
    """For each of ``ids`` term ids, its run's number among the run ids
    ``keys``, or -1 where it has none."""
    table = _NO_RUNS * ids
    # setitem returns None, so any() runs the map to its end, in C; the
    # function is called faster than the bound __setitem__.
    any(map(setitem, repeat(table), keys, count()))
    return table


class FrozenDatasetError(EnergyKgError):
    """Mutation attempted after freeze()."""


class UnfrozenDatasetError(EnergyKgError):
    """Read attempted before freeze()."""


class _Graph:
    """One graph's distinct id triples, with the buckets at each position.

    ``columns`` holds the triples as three lists of ids, the subjects,
    predicates and objects, indexed by triple number, in an order that
    keeps each subject's triples together: the triples' own, when they
    are so already, as a written document's are. The lists hold the
    dictionary's own int objects, so a triple costs three list slots and
    no object of its own. Each position keeps one run table, an
    ``array('i')`` indexed by term id holding the id's run number, or -1
    where no triple holds the id there, spanning every id of the
    dictionary (``pad``); the runs' starts; and the triple numbers in run
    order: for the subject the triples' own order, a ``range``, for the
    predicate and the object an array. So every bucket is found in one
    lookup, ``table[id]`` then a slice between two starts, and lists its
    triple numbers in triple order; a reader reads from the columns only
    the positions it needs. Built in one go and never changed but for
    padding, so any number of readers of a frozen dataset may share it."""

    __slots__ = ("columns", "_runs")

    def __init__(self, columns: Columns, groupings: Sequence[Grouping], ids: int) -> None:
        """The graph of the triples, each subject's together, with the
        grouping at each position in the dictionary's ids; the subjects'
        keeps the triples' order, so its order is not read. Each run
        table is filled from its grouping's run ids as they come."""
        self.columns = columns
        self._runs = [(run_table(keys, ids), starts, order) for order, keys, starts in groupings]

    @classmethod
    def of(cls, triples: list[IdTriple], ids: int) -> "_Graph":
        """The graph of distinct triples in any order, put in subject-run
        order: as they are when they keep each subject's together, else
        sorted stably by subject id. The list is emptied."""
        subjects = list(map(itemgetter(0), triples))
        # Together when each change of subject starts a new one.
        if len(set(subjects)) != sum(map(ne, subjects, islice(subjects, 1, None))) + 1:
            triples.sort(key=itemgetter(0))
            subjects.sort()
        columns = (subjects, list(map(itemgetter(1), triples)), list(map(itemgetter(2), triples)))
        # The tuples are freed before the triples are grouped.
        triples.clear()
        _, keys, starts = grouping(subjects, True)
        groupings = [(None, keys, array(U32, starts))]
        for column in columns[1:]:
            order, keys, starts = grouping(column)
            groupings.append((array(U32, order), keys, array(U32, starts)))
        return cls(columns, groupings, ids)

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def triples(self) -> list[IdTriple]:
        """Every triple as an id tuple, in triple order, built on each call."""
        return list(zip(*self.columns))

    def pad(self, ids: int) -> None:
        """Widen the run tables to ids term ids, the new ones in no run."""
        for table, _, _ in self._runs:
            if len(table) < ids:
                table.extend(_NO_RUNS * (ids - len(table)))

    def runs(
        self, position: int
    ) -> tuple[Callable[[int], int], Sequence[int], Optional[Sequence[int]]]:
        """The buckets at position, for reading many without a call each:
        a function from an id to its run's number, or to -1 when no triple
        holds the id there; the runs' starts, then the count; and the
        triple numbers in run order, or None at the subject, whose runs
        follow the triples' own order. Run r's bucket is ``order[starts[r]
        : starts[r + 1]]``, at the subject ``range(starts[r], starts[r +
        1])``; for r = -1 either is empty, as ``starts[-1]`` is the count
        and ``starts[0]`` is 0. The id must be one of the dictionary's, not
        negative."""
        table, starts, order = self._runs[position]
        return table.__getitem__, starts, order

    def numbers(self, position: int, key: int) -> Sequence[int]:
        """The numbers of the triples holding id key at position, rising."""
        run_of, starts, order = self.runs(position)
        run = run_of(key)
        begin, end = starts[run], starts[run + 1]
        return range(begin, end) if order is None else order[begin:end]

    def _tuples(self, numbers: Sequence[int]) -> list[IdTriple]:
        return list(zip(*[map(column.__getitem__, numbers) for column in self.columns]))

    def size(self, position: int, key: int) -> int:
        """How many triples hold id key at position."""
        table, starts, _ = self._runs[position]
        run = table[key]
        return starts[run + 1] - starts[run] if run >= 0 else 0

    def mean(self, position: int) -> float:
        """The mean size of the buckets at position."""
        runs = len(self._runs[position][1]) - 1
        return len(self) / runs if runs else 0

    def match(self, s: Optional[int], p: Optional[int], o: Optional[int]) -> list[IdTriple]:
        """The triples holding each given id at its position, as a new list."""
        fixed = [(i, key) for i, key in enumerate((s, p, o)) if key is not None]
        if not fixed:
            return self.triples
        numbers = self.numbers(*min(fixed, key=lambda at: self.size(*at)))
        checks = [(self.columns[i], key) for i, key in fixed]
        return self._tuples([n for n in numbers if all(c[n] == key for c, key in checks)])


def _graph_key(graph: GraphName) -> str:
    return "" if graph is None else graph.value


class Dataset:
    def __init__(self) -> None:
        self._ids = TermIds()
        # Each graph's grouped form: a sidecar's as it loads, every graph's
        # once frozen.
        self._graphs: dict[GraphName, _Graph] = {}
        # The graphs inserted into with add_ids: all their triples, in
        # order, as the keys of a dict, grouped at freeze().
        self._added: dict[GraphName, dict[IdTriple, None]] = {}
        self._frozen = False

    @contextmanager
    def interning(self) -> Iterator[TermIds]:
        """Yield the term dictionary: indexed by a canonical text, it gives
        the id, a new text the next free one. If the block raises, the
        terms it added are dropped again, so every id stays held by some
        quad."""
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
            raise

    def add_ids(self, triples: Iterable[IdTriple], graph: GraphName = None) -> None:
        """Insert id triples, with ids from the term dictionary, into one
        graph, which ``freeze()`` groups. A sidecar's graph takes them
        after its own."""
        if self._frozen:
            raise FrozenDatasetError("dataset is frozen")
        added = self._added.get(graph)
        if added is None:
            built = self._graphs.pop(graph, None)
            added = self._added[graph] = dict.fromkeys(() if built is None else built.triples)
        added.update(zip(triples, repeat(None)))

    def add_graph(self, graph: GraphName, columns: Columns, groupings: Sequence[Grouping]) -> None:
        """Insert distinct id triples, given as their three columns, each
        subject's together, into one graph, with the grouping at each
        position in the dictionary's ids, as a snapshot sidecar stores
        them; see ``_Graph``. The subjects'
        run ids follow the triples rather than rise, so two runs of one id
        can occur, and raise ``ValueError``; a run id past the dictionary
        raises ``IndexError``; either adds nothing. A graph that holds
        triples already takes the triples as ``add_ids`` does."""
        if self._frozen:
            raise FrozenDatasetError("dataset is frozen")
        ids = len(self._ids)
        built = _Graph(columns, groupings, ids)
        table, starts, _ = built._runs[0]
        if table.count(-1) != ids - (len(starts) - 1):
            raise ValueError("two subject runs have one id")
        if graph in self._graphs or graph in self._added:
            self.add_ids(built.triples, graph)
        else:
            self._graphs[graph] = built

    def freeze(self) -> "Dataset":
        """Group each graph inserted into with ``add_ids``, and widen every
        graph's id-indexed tables to every id, so that readers of the
        snapshot never change them."""
        ids = len(self._ids)
        for graph in list(self._added):
            # The dict of added triples is freed before the graph is grouped.
            self._graphs[graph] = _Graph.of(list(self._added.pop(graph)), ids)
        for store in self._graphs.values():
            store.pad(ids)
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _built(self) -> dict[GraphName, _Graph]:
        """Every graph, once the dataset is frozen: a store is read only then."""
        if not self._frozen:
            raise UnfrozenDatasetError("dataset is not frozen: freeze() it before reading")
        return self._graphs

    def __len__(self) -> int:
        return sum(map(len, self._built().values()))

    def graphs(self) -> list[Iri]:
        """Named graphs present, in canonical order."""
        return sorted(
            (g for g, store in self._built().items() if g is not None and len(store)),
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
        graph. Each graph answers from its narrowest bucket.
        """
        graphs = self._built()
        ids = self._ids
        key = [None if t is ANY else ids.get(term_key(t), -1) for t in (subject, predicate, object)]
        if -1 in key:
            # A term no quad holds matches nothing.
            return []
        names = sorted(graphs, key=_graph_key) if graph is ANY else [graph]
        term = self.term
        texts = ids.texts
        out: list[Quad] = []
        for name in names:
            found = self.triples(*key, name)
            found = sorted(found, key=lambda t: (texts[t[0]], texts[t[1]], texts[t[2]]))
            out.extend(Quad(term(s), term(p), term(o), name) for s, p, o in found)
        return out

    # -- id-level access, for the query evaluator and the serializer ---------

    def id_of(self, term: Term) -> Optional[int]:
        """The term's id, or None when no quad holds it."""
        return self._ids.get(term_key(term))

    def term(self, term_id: int) -> Term:
        """The term with the id, decoded from its text on each call."""
        return decode_term(self._ids.texts[term_id])

    def texts(self) -> list[str]:
        """Every interned term's canonical text, indexed by its id. The
        list is the dictionary's own: do not change it. Texts are distinct
        and never empty, so sorting ids by text is the canonical order."""
        return self._ids.texts

    def graph(self, graph: GraphName) -> Optional[_Graph]:
        """One graph's id triples and buckets, or None when the dataset has
        no such graph."""
        return self._built().get(graph)

    def triples(
        self, s: Optional[int], p: Optional[int], o: Optional[int], graph: GraphName
    ) -> list[IdTriple]:
        """Id triples of one graph matching the bound ids (None is the
        wildcard), unsorted, as a new list of tuples."""
        store = self.graph(graph)
        return [] if store is None else store.match(s, p, o)


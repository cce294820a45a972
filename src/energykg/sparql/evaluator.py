"""Bottom-up evaluation of the query subset over a frozen Dataset.

Semantics: a BGP yields every homomorphism into the active graph; Join
merges compatible bindings; GRAPH switches the active graph; FILTER
keeps rows whose expression evaluates to true, dropping rows whose
expression errors. Results are projected, sorted by the canonical
encoding of their bindings, and cut by LIMIT, in that order.

Evaluation is two steps. ``prepare`` does everything that depends only
on the store and the query: the dataset clauses, the lowering of
property paths, the constants' ids (a constant that no quad holds
matches nothing), each BGP's plan and stars, where each FILTER conjunct
is tested, the join keys, and the slots. It compiles each plan step,
FILTER condition and join key once into a function that reads rows by
slot. The ``PreparedQuery`` it returns holds no state of a run, so it
can be run any number of times, by several threads at once: ``run``
takes the deadline and does the row work, the canonical sort and
``LIMIT``.
``evaluate``, for ``query`` and ``analyze``, is the two in turn; the
endpoint keeps the prepared queries of the texts it was sent and runs
them again (``endpoint.py``).

A row is a tuple of the store's term ids, one per variable, in slot
order: each result carries its rows with ``slots``, a map from each
variable's name to its place in the row. A BGP numbers its variables as
its plan binds them, so a step appends the ids it binds (``row +
picked``), and a step that binds nothing passes the row on as it is; a
join appends the right row's columns that the left lacks. Ids are
decoded only where an expression reads them: this is late
materialisation over dictionary ids (Abadi et al., ICDE 2007), as in
RDF-3X (Neumann and Weikum, VLDB 2008). A run returns a
``SolutionSequence`` of the projected rows as tuples of ids, sorted by
the canonical text of each id, with the store's texts. A term is decoded
only for an expression, once per id and run. A date function of a
variable reads the instant of each id from a memo of the store's
(``_instants``), kept beside the store, not in it: each id's text is
parsed once per store and process. The sequence decodes its rows into
terms only if a caller reads them; the serializers (``results.py``)
render each distinct id once from its text, and ``analysis`` reads the
id rows and decodes each id once.

Each BGP, after its property paths are lowered, is ordered greedily: the
next pattern is the one with the smallest index bucket among its
constant and already-bound positions, a bound variable counting as the
mean bucket of its position (after Stocker et al., "SPARQL basic graph
pattern optimization using selectivity estimation", WWW 2008). Each step
then reads the active graph's buckets (``_Graph.bucket`` for a constant,
``_Graph.runs`` for a bound variable at any position): per row it looks
up the run of each bound position's id, and reads and scans only the
smallest bucket among the constant and bound positions, checking as it
goes the fixed positions that the bucket does not fix. Consecutive steps
on one subject variable that an earlier step binds, with constant
predicates, form a star, by that shape alone, unless a FILTER conjunct
falls due between them: per row the subject's run is looked up once and
read once, into a dict of its triples by predicate, from which each step
takes its triple. A row whose run repeats a predicate is extended pattern
by pattern instead, by each step's own bucket scan.

A FILTER over a BGP, or over a GRAPH block of one BGP, tests each of its
``&&`` conjuncts right after the plan step that binds the conjunct's
last variable, so later steps extend only the rows it keeps. This is
exact: in this subset a row passes only if every conjunct is true, an
unbound variable makes a conjunct an error, and a later step never
changes a bound id. Joins are hash-based on the statically shared
variables; a FILTER whose conjuncts equate date components across the
two sides of a Join is turned into an equi-join key so day-alignment
queries stay linear.
"""

from __future__ import annotations

import math
import time
from datetime import datetime
from decimal import Decimal
from functools import cache, lru_cache, partial
from itertools import chain, count
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Optional, Sequence, Union
from weakref import WeakKeyDictionary

from ..dataset import Dataset
from ..errors import EnergyKgError
from ..terms import (
    BlankNode,
    GraphName,
    Iri,
    Literal,
    NUMERIC_DATATYPES,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_STRING,
    parse_datetime,
    parse_numeric,
    term_key,
)
from .ast import (
    And,
    BGP,
    Constant,
    DEFAULT_GRAPH_ALIAS,
    DateFunc,
    Equals,
    Expression,
    Filter,
    Graph,
    GraphPattern,
    Join,
    SelectQuery,
    SequencePath,
    SolutionSequence,
    TriplePattern,
    Variable,
    expression_variables,
    pattern_variables,
)

# The term ids that a row binds, one per variable, in slot order.
Row = tuple[int, ...]
# Each variable's name -> its slot: its place in the rows.
Slots = dict[str, int]
# A triple pattern with each constant as its term id and each variable as its name.
IdPattern = tuple[Union[int, str], Union[int, str], Union[int, str]]

# Rows or triples a loop goes through between two deadline checks; a
# power of two, so a counter is checked with a mask.
_CHECK_EVERY = 256
_CHECK_MASK = _CHECK_EVERY - 1
# A triple's predicate.
_PREDICATE = itemgetter(1)
# Item getters by their int keys. They hold no state, so the prepared
# queries share them, and few distinct ones are asked for.
_getter = lru_cache(maxsize=1024)(itemgetter)
# How the canonical text of an xsd:dateTime literal ends.
_DATETIME_END = f'"^^<{XSD_DATETIME.value}>'
# The value of each valid lexical form of xsd:boolean.
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


class EvaluationError(EnergyKgError):
    """Raised for dataset-level problems, not per-row expression errors."""


class QueryTimeout(EnergyKgError):
    """Evaluation passed its deadline; the partial result is discarded."""


class _ExprError(Exception):
    """Per-row expression failure; the row is dropped by FILTER."""


class _Run:
    """One run's term decoder, which asks the store once per id, and its
    deadline."""

    def __init__(self, ds: Dataset, deadline: Optional[float]) -> None:
        self.term = cache(ds.term)
        self.deadline = deadline

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeout("query timed out")


# A prepared pattern's rows in one run.
Source = Callable[[_Run], list[Row]]
# A prepared step from rows to the rows it extends or keeps, in one run.
Step = Callable[[list[Row], _Run], list[Row]]
# A prepared pattern: its slots and its rows. A pattern that matches
# nothing numbers its variables in any order, since no row reads them.
Prepared = tuple[Slots, Source]


class _Instants(dict):
    """The instant that each id of one store spells, or None where its
    text is no valid xsd:dateTime literal's. Each is parsed when first
    read and kept only for an xsd:dateTime text, so the memo holds at most
    one entry per such text of the store. Threads may fill it at once: an
    id parsed twice gives the same instant."""

    def __init__(self, texts: list[str]) -> None:
        super().__init__()
        self.texts = texts

    def __missing__(self, id_: int) -> Optional[datetime]:
        text = self.texts[id_]
        instant = _text_instant(text)
        if text.endswith(_DATETIME_END):
            self[id_] = instant
        return instant


# Each store's instants, for as long as the store lives.
_STORE_INSTANTS: "WeakKeyDictionary[Dataset, _Instants]" = WeakKeyDictionary()


def _instants(ds: Dataset) -> _Instants:
    """The store's instants, an empty memo when first asked for."""
    found = _STORE_INSTANTS.get(ds)
    if found is None:
        found = _STORE_INSTANTS.setdefault(ds, _Instants(ds.texts()))
    return found


class _Planner:
    """What preparing one query reads: the store, the FROM NAMED graphs
    and the fresh names' counter."""

    def __init__(self, ds: Dataset, named: frozenset[Iri]) -> None:
        self.ds = ds
        self.named = named
        self.fresh = count()


class PreparedQuery:
    """A query planned over a store, to be run with ``run``. It holds no
    state of a run, so threads may run it at once."""

    def __init__(
        self, ds: Dataset, variables: tuple[str, ...], names: tuple[str, ...],
        pick: Callable[[Row], Row], rows: Source, limit: Optional[int],
    ) -> None:
        self._ds = ds
        self._variables = variables
        self._names = names
        self._pick = pick
        self._rows = rows
        self._limit = limit

    def run(self, deadline: Optional[float] = None) -> SolutionSequence:
        """The query's answer: its rows as tuples of the ids of the
        projected variables that they bind, in canonical order and cut by
        LIMIT, with the store's texts.

        Raises QueryTimeout once time.monotonic() passes deadline. The
        deadline is checked every 256 rows that a hash join or filter
        goes through, and a BGP step checks it before the rows and
        triples it goes through, counted together, pass 256 since its
        last check, and before each 256 triples of a larger bucket; so
        the longest stretch between two checks is about 256 rows or
        triples of work. It is checked once more after the final sort."""
        run = _Run(self._ds, deadline)
        run.check()
        rows = self._rows(run)
        projected = list(map(self._pick, rows)) if rows else []
        run.check()
        # Canonical order is the order of the ids' texts.
        texts = self._ds.texts()
        projected.sort(key=lambda row: tuple(map(texts.__getitem__, row)))
        run.check()
        if self._limit is not None:
            projected = projected[: self._limit]
        return SolutionSequence(self._variables, self._names, projected, texts)


def prepare(ds: Dataset, query: SelectQuery) -> PreparedQuery:
    """The query planned over ds. Every row binds each variable of the
    pattern; a projected variable that the pattern lacks, which only a
    query built without the parser can hold, is bound in no row and left
    out of the names."""
    default_graphs, named_graphs = _resolve_dataset(ds, query)
    slots, rows = _pattern(query.pattern, default_graphs, _Planner(ds, named_graphs))
    bound = pattern_variables(query.pattern)
    names = tuple(v.name for v in query.projection if v.name in bound)
    pick = _picker(*[slots[name] for name in names])
    return PreparedQuery(
        ds, tuple(v.name for v in query.projection), names, pick, rows, query.limit
    )


def evaluate(ds: Dataset, query: SelectQuery, deadline: Optional[float] = None) -> SolutionSequence:
    """The query's answer over ds: it is prepared, then run under the
    deadline (``PreparedQuery.run``)."""
    return prepare(ds, query).run(deadline)


def _resolve_dataset(
    ds: Dataset, query: SelectQuery
) -> tuple[tuple[GraphName, ...], frozenset[Iri]]:
    if not query.dataset_clauses:
        return (None,), frozenset(ds.graphs())
    defaults: list[GraphName] = []
    named: list[Iri] = []
    for clause in query.dataset_clauses:
        alias = clause.graph.value == DEFAULT_GRAPH_ALIAS
        if clause.named:
            if not alias:
                named.append(clause.graph)
        else:
            defaults.append(None if alias else clause.graph)
    return tuple(dict.fromkeys(defaults)), frozenset(named)


# -- patterns ----------------------------------------------------------------


def _pattern(pattern: GraphPattern, active: tuple[GraphName, ...], planner: _Planner) -> Prepared:
    if isinstance(pattern, BGP):
        return _bgp(pattern, active, planner)
    if isinstance(pattern, Graph):
        scope = _graph_scope(pattern, active, planner)
        return _nothing(pattern) if scope is None else _pattern(pattern.pattern, scope, planner)
    if isinstance(pattern, Join):
        left = _pattern(pattern.left, active, planner)
        right = _pattern(pattern.right, active, planner)
        shared = sorted(pattern_variables(pattern.left) & pattern_variables(pattern.right))
        return _hash_join(left, right, shared, planner)
    if isinstance(pattern, Filter):
        return _filter(pattern, active, planner)
    raise EvaluationError(f"unknown pattern node {pattern!r}")


def _nothing(pattern: GraphPattern) -> Prepared:
    """A pattern that matches nothing."""
    return dict(zip(sorted(pattern_variables(pattern)), count())), _no_rows


def _no_rows(run: _Run) -> list[Row]:
    return []


def _graph_scope(
    pattern: Graph, active: tuple[GraphName, ...], planner: _Planner
) -> Optional[tuple[GraphName, ...]]:
    """The active graphs inside a GRAPH block, or None when its graph is
    not a named one, where the block matches nothing."""
    if pattern.name.value == DEFAULT_GRAPH_ALIAS:
        return active
    return (pattern.name,) if pattern.name in planner.named else None


def _lower_paths(patterns: tuple[TriplePattern, ...], planner: _Planner) -> Iterator[TriplePattern]:
    """Rewrite p1/p2 into two patterns over a fresh, non-projectable variable."""
    for tp in patterns:
        if isinstance(tp.predicate, SequencePath):
            # Fresh names contain NUL, which the grammar cannot produce.
            mid = Variable(f"\x00path{next(planner.fresh)}")
            yield from _lower_paths((TriplePattern(tp.subject, tp.predicate.left, mid),), planner)
            yield from _lower_paths((TriplePattern(mid, tp.predicate.right, tp.object),), planner)
        else:
            yield tp


def _bgp(
    bgp: BGP, active: tuple[GraphName, ...], planner: _Planner,
    conditions: Sequence[Expression] = (),
) -> Prepared:
    """The BGP; with conditions, only its rows on which each condition is
    true, each one tested right after the plan step that binds its last
    variable."""
    ds = planner.ds
    patterns: list[IdPattern] = []
    for tp in _lower_paths(bgp.patterns, planner):
        encoded = tuple(
            x.name if isinstance(x, Variable) else ds.id_of(x)
            for x in (tp.subject, tp.predicate, tp.object)
        )
        if None in encoded:
            return _nothing(bgp)
        patterns.append(encoded)

    graphs = [graph for graph in map(ds.graph, active) if graph is not None]
    if patterns and not graphs:
        return _nothing(bgp)
    plan = _plan(patterns, graphs)
    # Each variable's step: the number of the step that binds it, from 1.
    # A condition over a variable that no step binds is never true, and
    # waits for the last step; one over no variable is tested first.
    step_of: dict[str, int] = {}
    for step, tp in enumerate(plan, 1):
        step_of.update((x, step) for x in tp if isinstance(x, str) and x not in step_of)
    due: list[list[Expression]] = [[] for _ in range(len(plan) + 1)]
    for condition in conditions:
        variables = expression_variables(condition)
        due[max((step_of.get(name, len(plan)) for name in variables), default=0)].append(condition)

    slots: Slots = {}
    first = _kept(due[0], slots, planner)
    stages: list[tuple[Step, Step]] = []
    for steps, tested in _stages(plan, due, graphs):
        if len(steps) == 1:
            extend = _extend(steps[0], slots, graphs)
        else:
            extend = _extend_star(steps, slots, graphs[0])
        # Compiled once the stage has given its variables their slots.
        stages.append((extend, _kept(tested, slots, planner)))
    return slots, partial(_bgp_rows, first, tuple(stages))


def _bgp_rows(first: Step, stages: tuple[tuple[Step, Step], ...], run: _Run) -> list[Row]:
    """A prepared BGP's rows: the empty row if the conditions over no
    variable keep it, extended and then kept by each stage in turn."""
    rows = first([()], run)
    for extend, kept in stages:
        if not rows:
            break
        rows = kept(extend(rows, run), run)
    return rows


def _stages(
    plan: list[IdPattern], due: list[list[Expression]], graphs: list
) -> list[tuple[list[IdPattern], list[Expression]]]:
    """The plan's steps in stages, each with the conditions due after its
    last step. Consecutive steps form one stage, a star, when the graph is
    one, each step's subject is one variable that an earlier stage binds
    and its predicate is a constant, and no condition falls due between
    them."""
    stages: list[tuple[list[IdPattern], list[Expression]]] = []
    bound: set[str] = set()
    # The variables bound before the last stage.
    before: set[str] = set()
    for tp, tested in zip(plan, due[1:]):
        if stages and not stages[-1][1] and _joins(stages[-1][0], tp, before, graphs):
            stages[-1] = (stages[-1][0] + [tp], tested)
        else:
            before = set(bound)
            stages.append(([tp], tested))
        bound.update(x for x in tp if isinstance(x, str))
    return stages


def _joins(star: list[IdPattern], tp: IdPattern, before: set[str], graphs: list) -> bool:
    """Whether tp joins the star of the steps before it, by shape alone: in
    one graph, its subject is theirs, a variable bound before them, and
    its predicate and the star's first one are constants."""
    subject = star[0][0]
    return (
        len(graphs) == 1 and tp[0] == subject and subject in before
        and isinstance(star[0][1], int) and isinstance(tp[1], int)
    )


def _binds(tp: IdPattern, slots: Slots):
    """How tp reads a row: its constant positions with their ids, its
    bound positions with their slots, the pairs of positions where a free
    variable is listed again, which must hold the same id, and the picker
    of the ids of the variables that it binds first, which are given the
    next slots."""
    consts = [(i, x) for i, x in enumerate(tp) if isinstance(x, int)]
    keys = [(i, slots[x]) for i, x in enumerate(tp) if isinstance(x, str) and x in slots]
    # Each free variable's first position; one listed again must match itself there.
    free: dict[str, int] = {}
    repeats: list[tuple[int, int]] = []
    for i, x in enumerate(tp):
        if isinstance(x, str) and x not in slots:
            if x in free:
                repeats.append((free[x], i))
            else:
                free[x] = i
    slots.update(zip(free, count(len(slots))))
    return consts, keys, tuple(repeats), _picker(*free.values())


def _extend(tp: IdPattern, slots: Slots, graphs: list) -> Step:
    """The step that extends each row by each triple of the graphs that
    matches tp under it: the row, then the triple's ids of the variables
    that tp binds first, which are given the next slots.

    Several graphs form one merged graph: a triple set, so a triple in
    two graphs extends a row once. A row's extensions by different
    triples differ, and the rows differ, so the merge is the union of the
    extensions in each graph, without repeats.
    """
    consts, keys, repeats, picked = _binds(tp, slots)
    steps = tuple(_extend_in(graph, tp, consts, keys, repeats, picked) for graph in graphs)
    return steps[0] if len(steps) == 1 else partial(_merged_rows, steps)


def _merged_rows(steps: tuple[Step, ...], rows: list[Row], run: _Run) -> list[Row]:
    extended = [extend(rows, run) for extend in steps]
    return list(dict.fromkeys(chain.from_iterable(extended)))


def _extend_star(star: list[IdPattern], slots: Slots, graph) -> Step:
    """The step that extends each row as ``_extend``'s steps would by each
    pattern of the star in turn, in one graph, where the patterns' subject
    is one variable that the rows bind and each predicate is a constant.
    Per row the subject's run is looked up once and read once, into a
    dict of its triples by predicate, built in C; where no predicate
    repeats in the run, as is usual, each pattern's one candidate is read
    from it, and otherwise the row is extended pattern by pattern, by each
    one's own ``_extend_in`` step, made from the same ``_binds``."""
    subject = slots[star[0][0]]
    checks, steps = [], []
    for tp in star:
        consts, keys, repeats, picked = _binds(tp, slots)
        # The run fixes the subject and the dict the predicate.
        checks.append((tp[1], *_check(keys, [(i, x) for i, x in consts if i != 1], 0), picked))
        steps.append(_extend_in(graph, tp, consts, keys, repeats, picked))
    return partial(_star_rows, *graph.runs(0), subject, tuple(checks), tuple(steps))


def _star_rows(
    run_of, starts, ordered, subject: int, checks: tuple, steps: tuple, rows: list[Row], run: _Run
) -> list[Row]:
    """``_extend_star``'s step, given the graph's subject runs, the rows'
    slot of the subject, each pattern's predicate, check and picker, and
    each pattern's own step."""
    out: list[Row] = []
    emit = out.append
    # Rows and triples gone through since the last deadline check, as
    # ``_extend_in`` counts them: a row with its run. A pattern's own step
    # counts the work it does.
    work = 0
    for row in rows:
        number = run_of(row[subject])
        triples = ordered[starts[number] : starts[number + 1]]
        units = 1 + len(triples)
        work += units
        if work > _CHECK_EVERY:
            work = units
            run.check()
        by_predicate = dict(zip(map(_PREDICATE, triples), triples))
        if len(by_predicate) == len(triples):
            for predicate, probe, target_of, target, picked in checks:
                triple = by_predicate.get(predicate)
                if target_of is not None:
                    target = target_of(row)
                if triple is None or probe(triple) != target:
                    break
                row += picked(triple)
            else:
                emit(row)
            continue
        found = [row]
        for extend in steps:
            found = extend(found, run)
            if not found:
                break
        out += found
    return out


def _extend_in(graph, tp: IdPattern, consts, keys, repeats, picked) -> Step:
    """``_extend``'s step in one graph, given tp's constant positions, its
    bound positions with their slots, its repeated free positions and the
    picker of the ids that it binds. Per row it scans the smallest bucket
    among the constant and bound positions'. A bucket lists its triples
    in the graph's triple order, so whichever bucket is scanned, the
    matching triples come in the same order."""
    # The smallest constant bucket and the position it fixes, or every
    # triple when there is no constant; a run slices the bucket when a
    # row first scans it. Then the runs at each bound position, and the
    # check of a bucket's triples by the position that the bucket fixes.
    size, at = len(graph.triples), None
    for i, x in consts:
        found = graph.size(i, x)
        if found < size:
            size, at = found, i
    start_check = _check(keys, consts, at)
    lookups = tuple((*graph.runs(i), slot, _check(keys, consts, i)) for i, slot in keys)
    key = None if at is None else tp[at]
    return partial(_extend_rows, graph, at, key, size, start_check, lookups, repeats, picked)


def _extend_rows(
    graph, at: Optional[int], key: Optional[int], size: int, start_check, lookups, repeats,
    picked, rows: list[Row], run: _Run,
) -> list[Row]:
    """``_extend_in``'s step, given the position and id of the smallest
    constant bucket (None for every triple) and its size, the check of
    its triples, the runs at the bound positions, the repeated free
    positions and the picker."""
    out: list[Row] = []
    emit = out.append
    every = graph.triples
    numbered = every.__getitem__
    start = every if at is None else None
    # Rows and triples gone through since the last deadline check; a
    # row counts with its bucket before the bucket is scanned.
    work = 0
    for row in rows:
        triples, least, check, chosen = start, size, start_check, None
        for run_of, starts, order, slot, lookup_check in lookups:
            # An id that no triple holds at this position gets run -1,
            # which spans order[count:0], an empty slice.
            number = run_of(row[slot])
            begin = starts[number]
            end = starts[number + 1]
            if end - begin < least:
                least, check, chosen, first = end - begin, lookup_check, order, begin
        if chosen is not None:
            # Only the smallest run is read: a subject's as a slice of the
            # triples, another position's through its triple numbers.
            triples = chosen[first : first + least]
            if chosen is not every:
                triples = list(map(numbered, triples))
        elif triples is None:
            triples = start = graph.bucket(at, key)
        probe, target_of, target = check
        if target_of is not None:
            target = target_of(row)
        units = 1 + len(triples)
        work += units
        if work > _CHECK_EVERY:
            work = units
            run.check()
        if repeats or len(triples) > _CHECK_EVERY:
            triples = _scan(triples, repeats, run)
        for triple in triples:
            if probe(triple) == target:
                emit(row + picked(triple))
    return out


def _scan(triples: list, repeats: Sequence[tuple[int, int]], run: _Run) -> Iterator[tuple]:
    """The triples whose positions listed in pairs hold the same id, with
    a deadline check before each 256 of them."""
    for begin in range(0, len(triples), _CHECK_EVERY):
        run.check()
        window = triples[begin : begin + _CHECK_EVERY]
        if repeats:
            window = [t for t in window if all(t[i] == t[j] for i, j in repeats)]
        yield from window


def _check(
    keys: list[tuple[int, int]], consts: list[tuple[int, int]], fixed: Optional[int]
) -> tuple[Callable, Optional[Callable[[Row], object]], object]:
    """How a triple of a bucket is checked against a row when every triple
    of the bucket holds the right id at position ``fixed`` (None when no
    position is known to): it matches when ``probe(triple)`` equals the
    target, the ids at the other bound positions (the row's, at the keys'
    slots) and then at the other constant positions, one id alone, else a
    tuple, empty when there is nothing to check. Returns the probe; and a
    function from the row to the target, or None and the target itself
    when no bound position is left."""
    keys = [(i, slot) for i, slot in keys if i != fixed]
    consts = [(i, x) for i, x in consts if i != fixed]
    if not keys and not consts:
        return _picker(), None, ()
    probe = _getter(*[i for i, _ in keys + consts])
    const_ids = tuple(x for _, x in consts)
    if not keys:
        return probe, None, const_ids[0] if len(const_ids) == 1 else const_ids
    if not const_ids:
        return probe, _getter(*[slot for _, slot in keys]), None
    get = _picker(*[slot for _, slot in keys])
    return probe, lambda row: get(row) + const_ids, None


def _plan(patterns: list[IdPattern], graphs: list) -> list[IdPattern]:
    """Order patterns greedily, the smallest estimated index bucket, summed
    over the graphs, first."""
    remaining, ordered, bound = list(patterns), [], set()

    def cost(tp: IdPattern) -> float:
        # A bound variable's id is not known yet: it costs the mean bucket.
        sizes = [
            sum(g.mean(i) if x in bound else g.size(i, x) for g in graphs)
            for i, x in enumerate(tp)
            if isinstance(x, int) or x in bound
        ]
        return min(sizes, default=math.inf)

    while remaining:
        best = min(remaining, key=cost)
        remaining.remove(best)
        ordered.append(best)
        bound.update(x for x in best if isinstance(x, str))
    return ordered


def _hash_join(
    left: Prepared,
    right: Prepared,
    shared: list[str],
    planner: _Planner,
    left_keys: tuple[DateFunc, ...] = (),
    right_keys: tuple[DateFunc, ...] = (),
) -> Prepared:
    """Each left row followed by the columns of each right row with the
    same key that the left rows lack. The right side is not run when the
    left has no rows."""
    (slots, left_rows), (right_slots, right_rows) = left, right
    # The right row's columns that are appended, in slot order.
    added = [name for name in right_slots if name not in slots]
    tail_of = _picker(*[right_slots[name] for name in added])
    left_key = _join_key(shared, left_keys, slots, planner)
    right_key = _join_key(shared, right_keys, right_slots, planner)
    rows = partial(_join_rows, left_rows, right_rows, left_key, right_key, tail_of)
    return {**slots, **dict(zip(added, count(len(slots))))}, rows


def _join_rows(
    left_rows: Source, right_rows: Source, left_key, right_key, tail_of, run: _Run
) -> list[Row]:
    """``_hash_join``'s rows, given each side's rows and join key, and the
    picker of the right row's appended columns."""
    rows = left_rows(run)
    if not rows:
        return rows
    index: dict[tuple, list[Row]] = {}
    for n, row in enumerate(right_rows(run)):
        if not n & _CHECK_MASK:
            run.check()
        key = right_key(row)
        if key is not None:
            index.setdefault(key, []).append(tail_of(row))
    out: list[Row] = []
    if not index:
        return out
    emit = out.append
    for n, row in enumerate(rows):
        if not n & _CHECK_MASK:
            run.check()
        key = left_key(row)
        if key is None:
            continue
        for tail in index.get(key, ()):
            if not len(out) & _CHECK_MASK:
                run.check()
            emit(row + tail)
    return out


def _join_key(
    shared: list[str], keys: tuple[DateFunc, ...], slots: Slots, planner: _Planner
) -> Callable[[Row], Optional[tuple]]:
    """A function from a row to its join key: the row's ids of the shared
    variables, then the value of each key, a date part of a variable;
    None where a key errors, as the equality it came from can never be
    true there. Keys that follow each other and take parts of one
    variable's date read its instant once per row, as the day-join's
    year, month and day do."""
    ids = tuple(_slot(name, slots) for name in shared)
    runs: list[tuple[str, list[str]]] = []
    for key in keys:
        if runs and key.argument.name == runs[-1][0]:
            runs[-1][1].append(key.component)
        else:
            runs.append((key.argument.name, [key.component]))
    dates = tuple((_slot(name, slots), _parts(components)) for name, components in runs)
    instants = _instants(planner.ds) if dates else None

    def key_of(row: Row) -> Optional[tuple]:
        try:
            key = [at(row) for at in ids]
            for at, parts in dates:
                instant = instants[at(row)]
                if instant is None:
                    return None
                key += parts(instant)
        except _ExprError:
            return None
        return tuple(key)

    return key_of


def _parts(components: list[str]) -> Callable[[datetime], tuple]:
    """A function from an instant to the tuple of its named parts."""
    parts = attrgetter(*components)
    if len(components) > 1:
        return parts
    return lambda instant: (parts(instant),)


def _filter(node: Filter, active: tuple[GraphName, ...], planner: _Planner) -> Prepared:
    inner = node.pattern
    conjuncts = _split_and(node.expression)
    if isinstance(inner, Graph) and isinstance(inner.pattern, BGP):
        scope = _graph_scope(inner, active, planner)
        return _nothing(inner) if scope is None else _bgp(inner.pattern, scope, planner, conjuncts)
    if isinstance(inner, BGP):
        return _bgp(inner, active, planner, conjuncts)
    if isinstance(inner, Join):
        scopes = pattern_variables(inner.left), pattern_variables(inner.right)
        pairs = [_key_pair(conjunct, *scopes) for conjunct in conjuncts]
        if any(pairs):
            left = _pattern(inner.left, active, planner)
            right = _pattern(inner.right, active, planner)
            left_keys, right_keys = zip(*filter(None, pairs))
            shared = sorted(scopes[0] & scopes[1])
            joined = _hash_join(left, right, shared, planner, left_keys, right_keys)
            rest = [conjunct for conjunct, pair in zip(conjuncts, pairs) if pair is None]
            return _filtered(joined, rest, planner)
    return _filtered(_pattern(inner, active, planner), [node.expression], planner)


def _filtered(prepared: Prepared, conditions: list[Expression], planner: _Planner) -> Prepared:
    """The pattern's rows on which every condition is true."""
    slots, rows = prepared
    if not conditions:
        return prepared
    return slots, partial(_filtered_rows, rows, _kept(conditions, slots, planner))


def _filtered_rows(rows: Source, kept: Step, run: _Run) -> list[Row]:
    return kept(rows(run), run)


def _kept(conditions: list[Expression], slots: Slots, planner: _Planner) -> Step:
    """The step that keeps the rows on which every condition is true:
    where one is false or errors, the row is dropped."""
    if not conditions:
        return _all_rows
    return partial(_kept_rows, tuple(_value(condition, slots, planner) for condition in conditions))


def _all_rows(rows: list[Row], run: _Run) -> list[Row]:
    return rows


def _kept_rows(values: tuple[Value, ...], rows: list[Row], run: _Run) -> list[Row]:
    out = []
    for n, row in enumerate(rows):
        if not n & _CHECK_MASK:
            run.check()
        try:
            for value in values:
                found = value(row, run)
                if found is not True and (found is False or not _effective_boolean(found)):
                    break
            else:
                out.append(row)
        except _ExprError:
            pass
    return out


@lru_cache(maxsize=1024)
def _picker(*slots: int) -> Callable[[tuple], tuple]:
    """A function from a row, or an id triple, to the tuple of its ids at
    slots, in C: one slot or none is read as a slice. Shared, as
    ``_getter``'s are."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return itemgetter(slice(*slots, slots[0] + 1) if slots else slice(0))


def _slot(name: str, slots: Slots) -> Callable[[Row], int]:
    """A function from a row to its id of the named variable; one that
    raises _ExprError when the rows do not bind the variable."""
    if name in slots:
        return _getter(slots[name])

    def unbound(row: Row) -> int:
        raise _ExprError(f"unbound variable ?{name}")

    return unbound


def _split_and(expression: Expression) -> list[Expression]:
    if isinstance(expression, And):
        return _split_and(expression.left) + _split_and(expression.right)
    return [expression]


def _key_pair(
    conjunct: Expression, left_scope: frozenset[str], right_scope: frozenset[str]
) -> Optional[tuple[DateFunc, DateFunc]]:
    """The sides of a conjunct that equates date parts of two variables,
    whose values hash consistently across rows, the left one first, when
    each side's variable is one of a side of a Join only; else None."""
    if isinstance(conjunct, Equals):
        for a, b in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
            if isinstance(a, DateFunc) and isinstance(b, DateFunc):
                if isinstance(a.argument, Variable) and isinstance(b.argument, Variable):
                    if a.argument.name in left_scope and b.argument.name in right_scope:
                        return a, b
    return None


# -- expressions -------------------------------------------------------------
# An expression is compiled once, when its query is prepared, for rows
# with the given slots, into a function from a row and its run to its
# value. Where SPARQL has an error, such as a variable that the rows do
# not bind, the function raises _ExprError.

# A compiled expression.
Value = Callable[[Row, _Run], object]


def _value(expression: Expression, slots: Slots, planner: _Planner) -> Value:
    if isinstance(expression, Variable):
        at = _slot(expression.name, slots)
        return lambda row, run: run.term(at(row))
    if isinstance(expression, Constant):
        constant = expression.value
        return lambda row, run: constant
    if isinstance(expression, DateFunc):
        part, argument = attrgetter(expression.component), expression.argument
        if isinstance(argument, Variable):
            # A variable's value is its id, whose instant the store's memo holds.
            instants, at = _instants(planner.ds), _slot(argument.name, slots)
            return partial(_date_part, part, lambda row, run: instants[at(row)])
        value = _value(argument, slots, planner)
        return partial(_date_part, part, lambda row, run: _instant(value(row, run)))
    if isinstance(expression, Equals):
        left, right = expression.left, expression.right
        if isinstance(left, Constant):
            # Equality is symmetric, errors too: a constant goes right.
            left, right = right, left
        left_value, right_value = _value(left, slots, planner), _value(right, slots, planner)
        number = _constant_number(right)
        if isinstance(left, DateFunc) and number is not None:
            return lambda row, run: left_value(row, run) == number
        left_pair, right_pair = _pair(left, left_value), _pair(right, right_value)
        return lambda row, run: _equals(*left_pair(row, run), *right_pair(row, run))
    if isinstance(expression, And):
        left_test = _test(expression.left, slots, planner)
        right_test = _test(expression.right, slots, planner)

        def both(row: Row, run: _Run) -> bool:
            left, right = left_test(row, run), right_test(row, run)
            # SPARQL logical-and: false wins over an error on the other side.
            if left is False or right is False:
                return False
            if left is None or right is None:
                raise _ExprError("error in && operand")
            return True

        return both
    raise EvaluationError(f"unknown expression node {expression!r}")


def _date_part(
    part: Callable[[datetime], int], instant_of: Callable[[Row, _Run], Optional[datetime]],
    row: Row, run: _Run,
) -> int:
    """A date function's value: the part of the instant that its argument spells."""
    instant = instant_of(row, run)
    if instant is None:
        raise _ExprError("date function needs a valid xsd:dateTime")
    return part(instant)


def _test(
    expression: Expression, slots: Slots, planner: _Planner
) -> Callable[[Row, _Run], Optional[bool]]:
    """A function from a row to the expression's effective boolean value,
    or None where the expression errors."""
    value = _value(expression, slots, planner)

    def test(row: Row, run: _Run) -> Optional[bool]:
        try:
            return _effective_boolean(value(row, run))
        except _ExprError:
            return None

    return test


def _constant_number(expression: Expression) -> Union[int, Decimal, None]:
    """A constant's number, or None where it is no constant, or its value no
    number or one that errors."""
    if isinstance(expression, Constant):
        try:
            return _number(expression.value)
        except _ExprError:
            pass
    return None


def _pair(expression: Expression, value: Value) -> Callable[[Row, _Run], tuple]:
    """A function from a row to the value of an operand of ``=`` and its
    number. A date part is its own number, and a constant's pair is made
    once, unless its number errors."""
    if isinstance(expression, DateFunc):
        return lambda row, run: (part := value(row, run), part)
    if isinstance(expression, Constant):
        try:
            pair = expression.value, _number(expression.value)
            return lambda row, run: pair
        except _ExprError:
            pass
    return lambda row, run: (found := value(row, run), _number(found))


def _instant(value) -> Optional[datetime]:
    """The instant that the value spells if it is a valid xsd:dateTime literal."""
    return _text_instant(term_key(value)) if isinstance(value, Literal) else None


def _text_instant(text: str) -> Optional[datetime]:
    """The instant that a term's canonical text spells if it is a valid
    xsd:dateTime literal's, the only texts that end as theirs do."""
    if not text.endswith(_DATETIME_END):
        return None
    try:
        return parse_datetime(text[1 : -len(_DATETIME_END)])
    except EnergyKgError:
        return None


def _effective_boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    if isinstance(value, Literal):
        if value.datatype == XSD_BOOLEAN:
            # An invalid lexical form is false (SPARQL 1.1, 17.2.2).
            return _BOOLEANS.get(value.lexical, False)
        if value.datatype in NUMERIC_DATATYPES:
            return _number(value) != 0
        if value.datatype == XSD_STRING:
            return value.lexical != ""
    raise _ExprError(f"no effective boolean value for {value!r}")


def _equals(a, a_number, b, b_number) -> bool:
    if a_number is not None and b_number is not None:
        return a_number == b_number
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a.datatype == XSD_DATETIME and b.datatype == XSD_DATETIME:
            a_instant, b_instant = _instant(a), _instant(b)
            if a_instant is None or b_instant is None:
                raise _ExprError("invalid dateTime in comparison")
            return a_instant == b_instant
        if a.datatype == XSD_STRING and b.datatype == XSD_STRING:
            return a.lexical == b.lexical
        if a.datatype == XSD_BOOLEAN == b.datatype and {a.lexical, b.lexical} <= _BOOLEANS.keys():
            return _BOOLEANS[a.lexical] == _BOOLEANS[b.lexical]
        if a == b:
            return True
        raise _ExprError(f"cannot compare literals {a} and {b}")
    if isinstance(a, Iri) and isinstance(b, Iri):
        return a == b
    if isinstance(a, BlankNode) and isinstance(b, BlankNode):
        return a == b
    if isinstance(a, (Iri, BlankNode, Literal)) and isinstance(b, (Iri, BlankNode, Literal)):
        # Different term kinds are unequal, not an error.
        return False
    raise _ExprError(f"cannot compare {a!r} with {b!r}")


def _number(value) -> Union[int, Decimal, None]:
    """The value as a number for ``=``: an int as itself (which compares as
    its Decimal would), a numeric literal as its Decimal; else None. A
    lexical form that spells no finite number, such as ``NaN`` or
    ``sNaN``, which Decimal accepts and whose comparison can raise, is an
    expression error."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, Literal) and value.datatype in NUMERIC_DATATYPES:
        try:
            number = parse_numeric(value)
        except EnergyKgError:
            raise _ExprError("unparseable numeric literal")
        if not number.is_finite():
            raise _ExprError("numeric literal is no finite number")
        return number
    return None

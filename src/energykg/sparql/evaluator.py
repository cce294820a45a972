"""Bottom-up evaluation of the query subset over a frozen Dataset.

Semantics: a BGP yields every homomorphism into the active graph; Join
merges compatible bindings; GRAPH switches the active graph; FILTER
keeps rows whose expression evaluates to true, dropping rows whose
expression errors. Results are projected, sorted by the canonical
encoding of their bindings, and cut by LIMIT, in that order.

Rows bind variables to the store's term ids. ``solve`` returns the
projected rows as tuples of ids, sorted by the canonical text of each id;
inside it a term is decoded only to evaluate FILTER and join-key
expressions, once per id and evaluation. ``evaluate`` decodes the rows
into terms at the edge, for callers that want them; a caller that reads
a few distinct ids many times (``analysis.align``) takes the id rows and
decodes each id once. A query constant that no quad holds matches
nothing.

Each BGP, after its property paths are lowered, is ordered greedily: the
next pattern is the one with the smallest index bucket among its
constant and already-bound positions, a bound variable counting as the
mean bucket of its position (after Stocker et al., "SPARQL basic graph
pattern optimization using selectivity estimation", WWW 2008). Each step
then reads the active graph's buckets (``_Graph.bucket`` for a constant,
``_Graph.runs`` for a bound variable, one slice per row): per row it
scans the smallest bucket among the constant and bound positions,
checking as it goes the fixed positions that the bucket does not fix.

Joins are hash-based on the statically shared variables; a FILTER whose
conjuncts equate date components across the two sides of a Join is
turned into an equi-join key so day-alignment queries stay linear.
"""

from __future__ import annotations

import math
import time
from datetime import datetime
from decimal import Decimal
from functools import cache
from itertools import count
from operator import itemgetter
from typing import Callable, Iterator, Optional, Union

from ..dataset import Dataset
from ..errors import EnergyKgError
from ..terms import (
    BlankNode,
    GraphName,
    Iri,
    Literal,
    NUMERIC_DATATYPES,
    Term,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_STRING,
    parse_datetime,
    parse_numeric,
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

# Variable name -> term id.
Row = dict[str, int]
# A triple pattern with each constant as its term id and each variable as its name.
IdPattern = tuple[Union[int, str], Union[int, str], Union[int, str]]

# Rows or triples a loop goes through between two deadline checks; a
# power of two, so a counter is checked with a mask.
_CHECK_EVERY = 256
_CHECK_MASK = _CHECK_EVERY - 1


class EvaluationError(EnergyKgError):
    """Raised for dataset-level problems, not per-row expression errors."""


class QueryTimeout(EnergyKgError):
    """Evaluation passed its deadline; the partial result is discarded."""


class _ExprError(Exception):
    """Per-row expression failure; the row is dropped by FILTER."""


class _Run:
    """One evaluation's store, its term decoder (which asks the store once
    per id), FROM NAMED graphs, fresh names and deadline."""

    def __init__(self, ds: Dataset, named: frozenset[Iri], deadline: Optional[float]) -> None:
        self.ds = ds
        self.term = cache(ds.term)
        self.named = named
        self.fresh = count()
        self.deadline = deadline

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeout("query timed out")


def evaluate(ds: Dataset, query: SelectQuery, deadline: Optional[float] = None) -> SolutionSequence:
    """Evaluate query over ds (``solve``), with each row's ids decoded
    into terms."""
    names, rows = solve(ds, query, deadline)
    term = ds.term
    return SolutionSequence(
        tuple(v.name for v in query.projection),
        [dict(zip(names, map(term, row))) for row in rows],
    )


def solve(
    ds: Dataset, query: SelectQuery, deadline: Optional[float] = None
) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """The projected variables that the rows bind, and the rows: each a
    tuple of those variables' ids, in canonical order and cut by LIMIT.

    Raises QueryTimeout once time.monotonic() passes deadline. The
    deadline is checked every 256 rows that a BGP step, hash join or
    filter goes through and every 256 triples a BGP step scans, so the
    longest stretch between two checks is 256 rows or triples of work.
    Every row binds each variable of the pattern; a projected variable
    that the pattern lacks, which only a query built without the parser
    can hold, is bound in no row and left out of the names."""
    default_graphs, named_graphs = _resolve_dataset(ds, query)
    run = _Run(ds, named_graphs, deadline)
    run.check()
    rows = _eval_pattern(query.pattern, default_graphs, run)

    bound = pattern_variables(query.pattern)
    names = tuple(v.name for v in query.projection if v.name in bound)
    # One column per name; zipping no columns would drop the rows.
    if names:
        projected = list(zip(*[map(itemgetter(name), rows) for name in names]))
    else:
        projected = [()] * len(rows)
    run.check()
    # Canonical order is the order of the ids' texts.
    texts = ds.texts()
    projected.sort(key=lambda row: tuple(map(texts.__getitem__, row)))
    if query.limit is not None:
        projected = projected[: query.limit]
    return names, projected


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


# -- pattern evaluation ------------------------------------------------------


def _eval_pattern(pattern: GraphPattern, active: tuple[GraphName, ...], run: _Run) -> list[Row]:
    if isinstance(pattern, BGP):
        return _eval_bgp(pattern, active, run)
    if isinstance(pattern, Graph):
        if pattern.name.value == DEFAULT_GRAPH_ALIAS:
            return _eval_pattern(pattern.pattern, active, run)
        if pattern.name not in run.named:
            return []
        return _eval_pattern(pattern.pattern, (pattern.name,), run)
    if isinstance(pattern, Join):
        left = _eval_pattern(pattern.left, active, run)
        if not left:
            return []
        right = _eval_pattern(pattern.right, active, run)
        shared = sorted(pattern_variables(pattern.left) & pattern_variables(pattern.right))
        return _hash_join(left, right, shared, run)
    if isinstance(pattern, Filter):
        return _eval_filter(pattern, active, run)
    raise EvaluationError(f"unknown pattern node {pattern!r}")


def _lower_paths(patterns: tuple[TriplePattern, ...], run: _Run) -> Iterator[TriplePattern]:
    """Rewrite p1/p2 into two patterns over a fresh, non-projectable variable."""
    for tp in patterns:
        if isinstance(tp.predicate, SequencePath):
            # Fresh names contain NUL, which the grammar cannot produce.
            mid = Variable(f"\x00path{next(run.fresh)}")
            yield from _lower_paths((TriplePattern(tp.subject, tp.predicate.left, mid),), run)
            yield from _lower_paths((TriplePattern(mid, tp.predicate.right, tp.object),), run)
        else:
            yield tp


def _eval_bgp(bgp: BGP, active: tuple[GraphName, ...], run: _Run) -> list[Row]:
    ds = run.ds
    patterns: list[IdPattern] = []
    for tp in _lower_paths(bgp.patterns, run):
        encoded = tuple(
            x.name if isinstance(x, Variable) else ds.id_of(x)
            for x in (tp.subject, tp.predicate, tp.object)
        )
        if None in encoded:
            return []
        patterns.append(encoded)

    graphs = [graph for graph in map(ds.graph, active) if graph is not None]
    if patterns and not graphs:
        return []
    rows: list[Row] = [{}]
    bound: set[str] = set()
    for tp in _plan(patterns, graphs):
        rows = _extend(rows, tp, bound, graphs, run)
        bound.update(x for x in tp if isinstance(x, str))
        if not rows:
            break
    return rows


def _extend(rows: list[Row], tp: IdPattern, bound: set[str], graphs: list, run: _Run) -> list[Row]:
    """Each row extended by each triple of the graphs that matches tp under it.

    Several graphs form one merged graph: a triple set, so identical
    triples from different graphs collapse. A bucket lists its triples in
    the graph's triple order, so whichever bucket is scanned, the matching
    triples come in the same order.
    """
    consts = [(i, x) for i, x in enumerate(tp) if isinstance(x, int)]
    keys = [(i, x) for i, x in enumerate(tp) if isinstance(x, str) and x in bound]
    # Each free variable's first position; one listed again must match itself there.
    free: dict[str, int] = {}
    repeats: list[tuple[int, int]] = []
    for i, x in enumerate(tp):
        if isinstance(x, str) and x not in bound:
            if x in free:
                repeats.append((free[x], i))
            else:
                free[x] = i
    assigned = tuple(free.items())

    # Per graph, the size of its smallest constant bucket and the position
    # that bucket fixes, or every triple when there is no constant; the
    # bucket itself, sliced when a row first scans it; and the graph's runs
    # at each bound position.
    sources = []
    for graph in graphs:
        size, at = len(graph.triples), None
        for i, x in consts:
            found = graph.size(i, x)
            if found < size:
                size, at = found, i
        start = graph.triples if at is None else None
        sources.append([start, size, at, graph, [(*graph.runs(i), i, name) for i, name in keys]])
    # The check of a bucket's triples, by the position the bucket fixes;
    # the merged buckets of several graphs fix none.
    fixing = {source[2] for source in sources}.union(i for i, _ in keys)
    if len(sources) > 1:
        fixing.add(None)
    checks = {i: _check(keys, consts, i) for i in fixing}

    out: list[Row] = []
    emit = out.append
    scanned = 0
    for n, row in enumerate(rows):
        if not n & _CHECK_MASK:
            run.check()
        triples = fixes = None
        for source in sources:
            bucket, size, at, graph, lookups = source
            for run_of, starts, ordered, i, name in lookups:
                # An id no triple holds at i gets run -1, which spans
                # ordered[count:0], an empty slice.
                number = run_of(row[name], -1)
                begin = starts[number]
                end = starts[number + 1]
                if end - begin < size:
                    bucket, size, at = ordered[begin:end], end - begin, i
            if bucket is None:
                bucket = source[0] = graph.bucket(at, tp[at])
            if triples is None:
                triples, fixes = bucket, at
            else:
                triples, fixes = set(triples).union(bucket), None
        probe, target_of, target = checks[fixes]
        if target_of is not None:
            target = target_of(row)
        for triple in triples:
            scanned += 1
            if not scanned & _CHECK_MASK:
                run.check()
            if probe is not None and probe(triple) != target:
                continue
            if repeats and any(triple[i] != triple[j] for i, j in repeats):
                continue
            extended = row.copy()
            for name, i in assigned:
                extended[name] = triple[i]
            emit(extended)
    return out


def _check(
    keys: list[tuple[int, str]], consts: list[tuple[int, int]], fixed: Optional[int]
) -> tuple[Optional[Callable], Optional[Callable[[Row], object]], object]:
    """How a triple of a bucket is checked against a row when every triple
    of the bucket holds the right id at position ``fixed`` (None when no
    position is known to): it matches when ``probe(triple)`` equals the
    target, the ids at the other bound positions (the row's) and then at
    the other constant positions, one id alone, else a tuple. Returns the
    probe, or None when there is nothing to check; and a function from the
    row to the target, or None and the target itself when no bound
    position is left."""
    keys = [(i, name) for i, name in keys if i != fixed]
    consts = [(i, x) for i, x in consts if i != fixed]
    if not keys and not consts:
        return None, None, None
    probe = itemgetter(*[i for i, _ in keys + consts])
    const_ids = tuple(x for _, x in consts)
    if not keys:
        return probe, None, const_ids[0] if len(const_ids) == 1 else const_ids
    get = itemgetter(*[name for _, name in keys])
    if not const_ids:
        return probe, get, None
    if len(keys) == 1:
        return probe, lambda row: (get(row),) + const_ids, None
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
    left: list[Row],
    right: list[Row],
    shared: list[str],
    run: _Run,
    left_keys: tuple[DateFunc, ...] = (),
    right_keys: tuple[DateFunc, ...] = (),
) -> list[Row]:
    index: dict[tuple, list[Row]] = {}
    key_of = _join_key(shared, right_keys, run.term)
    for n, row in enumerate(right):
        if not n & _CHECK_MASK:
            run.check()
        key = key_of(row)
        if key is not None:
            index.setdefault(key, []).append(row)
    out: list[Row] = []
    emit = out.append
    key_of = _join_key(shared, left_keys, run.term)
    for n, row in enumerate(left):
        if not n & _CHECK_MASK:
            run.check()
        key = key_of(row)
        if key is None:
            continue
        for other in index.get(key, ()):
            if not len(out) & _CHECK_MASK:
                run.check()
            merged = row.copy()
            merged.update(other)
            emit(merged)
    return out


def _join_key(
    shared: list[str], keys: tuple[DateFunc, ...], term: Callable[[int], Term]
) -> Callable[[Row], Optional[tuple]]:
    """A function from a row to its join key: the row's ids of the shared
    variables, then the value of each key. Each distinct argument of the
    keys is evaluated and parsed as an instant once per row, and each key
    takes its component from that instant."""
    # Each distinct argument, with the component its first key reads.
    arguments: dict[Expression, str] = {}
    for key in keys:
        arguments.setdefault(key.argument, key.component)
    position = {argument: i for i, argument in enumerate(arguments)}
    picks = [(position[key.argument], key.component) for key in keys]

    def key_of(row: Row) -> Optional[tuple]:
        instants = []
        for argument, component in arguments.items():
            try:
                instants.append(_instant(_eval_expression(argument, row, term), component))
            except _ExprError:
                # The equality some key came from can never be true here.
                return None
        parts = list(map(row.get, shared))
        parts.extend([getattr(instants[i], component) for i, component in picks])
        return tuple(parts)

    return key_of


def _eval_filter(node: Filter, active: tuple[GraphName, ...], run: _Run) -> list[Row]:
    inner = node.pattern
    if isinstance(inner, Join):
        conjuncts = _split_and(node.expression)
        left_scope = pattern_variables(inner.left)
        right_scope = pattern_variables(inner.right)
        left_keys: list[Expression] = []
        right_keys: list[Expression] = []
        rest: list[Expression] = []
        for conjunct in conjuncts:
            placed = False
            if isinstance(conjunct, Equals):
                a_vars = expression_variables(conjunct.left)
                b_vars = expression_variables(conjunct.right)
                if _is_keyable(conjunct.left) and _is_keyable(conjunct.right) and a_vars and b_vars:
                    if a_vars <= left_scope and b_vars <= right_scope:
                        left_keys.append(conjunct.left)
                        right_keys.append(conjunct.right)
                        placed = True
                    elif a_vars <= right_scope and b_vars <= left_scope:
                        left_keys.append(conjunct.right)
                        right_keys.append(conjunct.left)
                        placed = True
            if not placed:
                rest.append(conjunct)
        if left_keys:
            left = _eval_pattern(inner.left, active, run)
            right = _eval_pattern(inner.right, active, run)
            shared = sorted(left_scope & right_scope)
            joined = _hash_join(left, right, shared, run, tuple(left_keys), tuple(right_keys))
            return _kept(joined, rest, run)

    return _kept(_eval_pattern(inner, active, run), [node.expression], run)


def _kept(rows: list[Row], conditions: list[Expression], run: _Run) -> list[Row]:
    """The rows on which every condition is true."""
    out = []
    for n, row in enumerate(rows):
        if not n & _CHECK_MASK:
            run.check()
        if all(_try_bool(condition, row, run.term) is True for condition in conditions):
            out.append(row)
    return out


def _split_and(expression: Expression) -> list[Expression]:
    if isinstance(expression, And):
        return _split_and(expression.left) + _split_and(expression.right)
    return [expression]


def _is_keyable(expression: Expression) -> bool:
    """Expressions whose values hash consistently across rows (date parts)."""
    return isinstance(expression, DateFunc)


# -- expressions -------------------------------------------------------------


def _eval_expression(expression: Expression, row: Row, term: Callable[[int], Term]):
    """Value of expression on row, whose ids are decoded by term."""
    if isinstance(expression, Variable):
        value = row.get(expression.name)
        if value is None:
            raise _ExprError("unbound variable")
        return term(value)
    if isinstance(expression, Constant):
        return expression.value
    if isinstance(expression, DateFunc):
        value = _eval_expression(expression.argument, row, term)
        return getattr(_instant(value, expression.component), expression.component)
    if isinstance(expression, Equals):
        return _equals(
            _eval_expression(expression.left, row, term),
            _eval_expression(expression.right, row, term),
        )
    if isinstance(expression, And):
        left = _try_bool(expression.left, row, term)
        right = _try_bool(expression.right, row, term)
        # SPARQL logical-and: false wins over an error on the other side.
        if left is False or right is False:
            return False
        if left is None or right is None:
            raise _ExprError("error in && operand")
        return True
    raise _ExprError(f"unknown expression {expression!r}")


def _instant(value, component: str) -> datetime:
    """The instant that the value, an xsd:dateTime literal, spells, for
    reading its component."""
    if not isinstance(value, Literal) or value.datatype != XSD_DATETIME:
        raise _ExprError(f"{component}() needs an xsd:dateTime")
    try:
        return parse_datetime(value.lexical)
    except EnergyKgError:
        raise _ExprError("invalid dateTime lexical form")


def _try_bool(expression: Expression, row: Row, term: Callable[[int], Term]) -> Optional[bool]:
    try:
        return _effective_boolean(_eval_expression(expression, row, term))
    except _ExprError:
        return None


def _effective_boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    if isinstance(value, Literal):
        if value.datatype == XSD_BOOLEAN:
            return value.lexical == "true"
        if value.datatype in NUMERIC_DATATYPES:
            return _maybe_decimal(value) != 0
        if value.datatype == XSD_STRING:
            return value.lexical != ""
    raise _ExprError(f"no effective boolean value for {value!r}")


def _equals(a, b) -> bool:
    a_num = _maybe_decimal(a)
    b_num = _maybe_decimal(b)
    if a_num is not None and b_num is not None:
        return a_num == b_num
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a.datatype == XSD_DATETIME and b.datatype == XSD_DATETIME:
            try:
                return parse_datetime(a.lexical) == parse_datetime(b.lexical)
            except EnergyKgError:
                raise _ExprError("invalid dateTime in comparison")
        if a.datatype == XSD_STRING and b.datatype == XSD_STRING:
            return a.lexical == b.lexical
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


def _maybe_decimal(value) -> Optional[Decimal]:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, Literal) and value.datatype in NUMERIC_DATATYPES:
        try:
            return parse_numeric(value)
        except EnergyKgError:
            raise _ExprError("unparseable numeric literal")
    return None

"""AST for the SELECT query subset.

Groups parse to a left-deep Join of their elements with FILTERs wrapped
around the whole group. Sequence property paths stay in the tree; the
evaluator lowers them to triple patterns with fresh variables.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Union

from ..record import Frozen, Record, set_field
from ..terms import Iri, Literal, PrefixMap, Term, decode_term, term_key

# The alias some engines use for the store's default graph.
DEFAULT_GRAPH_ALIAS = "urn:x-arq:DefaultGraph"


class Variable(Frozen):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        set_field(self, "name", name)

    def __str__(self) -> str:
        return f"?{self.name}"


class SequencePath(Frozen):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "PathExpr", right: "PathExpr") -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)


PathExpr = Union[Iri, SequencePath]

PatternTerm = Union[Term, Variable]


class TriplePattern(Frozen):
    __slots__ = _fields = ("subject", "predicate", "object")

    def __init__(
        self,
        subject: PatternTerm,
        predicate: Union[Iri, Variable, SequencePath],
        object: PatternTerm,
    ) -> None:
        set_field(self, "subject", subject)
        set_field(self, "predicate", predicate)
        set_field(self, "object", object)


# -- expressions -------------------------------------------------------------


class Constant(Frozen):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Union[Literal, Iri]) -> None:
        set_field(self, "value", value)


class Equals(Frozen):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "Expression", right: "Expression") -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)


class And(Frozen):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "Expression", right: "Expression") -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)


class DateFunc(Frozen):
    __slots__ = _fields = ("component", "argument")

    # component: "year" | "month" | "day"
    def __init__(self, component: str, argument: "Expression") -> None:
        set_field(self, "component", component)
        set_field(self, "argument", argument)


Expression = Union[Variable, Constant, Equals, And, DateFunc]


# -- graph patterns ----------------------------------------------------------


class BGP(Frozen):
    _fields = ("patterns",)

    def __init__(self, patterns: tuple[TriplePattern, ...]) -> None:
        set_field(self, "patterns", patterns)


class Graph(Frozen):
    _fields = ("name", "pattern")

    def __init__(self, name: Iri, pattern: "GraphPattern") -> None:
        set_field(self, "name", name)
        set_field(self, "pattern", pattern)


class Filter(Frozen):
    _fields = ("expression", "pattern")

    def __init__(self, expression: Expression, pattern: "GraphPattern") -> None:
        set_field(self, "expression", expression)
        set_field(self, "pattern", pattern)


class Join(Frozen):
    _fields = ("left", "right")

    def __init__(self, left: "GraphPattern", right: "GraphPattern") -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)


GraphPattern = Union[BGP, Graph, Filter, Join]


def pattern_variables(pattern: GraphPattern) -> frozenset[str]:
    """Statically in-scope variable names of a graph pattern."""
    if isinstance(pattern, BGP):
        names = set()
        for tp in pattern.patterns:
            for position in (tp.subject, tp.predicate, tp.object):
                if isinstance(position, Variable):
                    names.add(position.name)
        return frozenset(names)
    if isinstance(pattern, Graph):
        return pattern_variables(pattern.pattern)
    if isinstance(pattern, Filter):
        return pattern_variables(pattern.pattern)
    return pattern_variables(pattern.left) | pattern_variables(pattern.right)


def expression_variables(expression: Expression) -> frozenset[str]:
    if isinstance(expression, Variable):
        return frozenset({expression.name})
    if isinstance(expression, Constant):
        return frozenset()
    if isinstance(expression, DateFunc):
        return expression_variables(expression.argument)
    return expression_variables(expression.left) | expression_variables(expression.right)


class DatasetClause(Frozen):
    _fields = ("named", "graph")

    def __init__(self, named: bool, graph: Iri) -> None:
        set_field(self, "named", named)
        set_field(self, "graph", graph)


class SelectQuery(Frozen):
    _fields = ("projection", "pattern", "base", "prefixes", "dataset_clauses", "limit")

    def __init__(
        self,
        projection: tuple[Variable, ...],
        pattern: GraphPattern,
        base: Optional[Iri] = None,
        prefixes: Optional[PrefixMap] = None,
        dataset_clauses: tuple[DatasetClause, ...] = (),
        limit: Optional[int] = None,
    ) -> None:
        set_field(self, "projection", projection)
        set_field(self, "pattern", pattern)
        set_field(self, "base", base)
        set_field(self, "prefixes", PrefixMap() if prefixes is None else prefixes)
        set_field(self, "dataset_clauses", dataset_clauses)
        set_field(self, "limit", limit)


# A sequence's rows as ids (``SolutionSequence.table``).
Table = tuple[tuple[str, ...], list[tuple[Optional[int], ...]], list[str], bool]


class SolutionSequence(Record):
    """Projected result rows in deterministic order: each row maps the
    variables it binds to their terms.

    A sequence that an evaluation returns (``from_ids``) holds its rows as
    the store's term ids: the variables they bind, one tuple of ids per
    row, and the store's canonical texts by id. It decodes ``rows`` into
    terms only when they are first read. The serializers read ``table``
    instead, which a sequence built from rows of terms gives by numbering
    the terms' canonical texts."""

    _fields = ("variables", "rows")

    def __init__(self, variables: tuple[str, ...], rows: list[dict[str, Term]]) -> None:
        self.variables = variables
        self._rows = rows
        self._table: Optional[Table] = None

    @classmethod
    def from_ids(
        cls,
        variables: tuple[str, ...],
        names: tuple[str, ...],
        rows: list[tuple[int, ...]],
        texts: list[str],
    ) -> "SolutionSequence":
        """The sequence of rows that bind names to the ids in each tuple,
        whose canonical texts are ``texts[id]``."""
        seq = cls(variables, None)
        seq._table = (names, rows, texts, False)
        return seq

    @property
    def rows(self) -> list[dict[str, Term]]:
        if self._rows is None:
            names, rows, texts, _ = self._table
            term = cache(lambda i: decode_term(texts[i]))
            self._rows = [dict(zip(names, map(term, row))) for row in rows]
        return self._rows

    def table(self) -> Table:
        """The variables that the rows bind; each row as a tuple of their
        ids, None where the row leaves a variable unbound; the canonical
        text of each id; and whether any row holds None."""
        if self._table is None:
            names = tuple(dict.fromkeys(self.variables))
            numbers: dict[str, int] = {}
            rows = [
                tuple(
                    numbers.setdefault(term_key(row[name]), len(numbers)) if name in row else None
                    for name in names
                )
                for row in self._rows
            ]
            ragged = any(None in row for row in rows)
            self._table = (names, rows, list(numbers), ragged)
        return self._table

    def __len__(self) -> int:
        return len(self._table[1] if self._rows is None else self._rows)

    def __iter__(self):
        return iter(self.rows)

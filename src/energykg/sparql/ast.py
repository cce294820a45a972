"""AST for the SELECT query subset.

Groups parse to a left-deep Join of their elements with FILTERs wrapped
around the whole group. Sequence property paths stay in the tree; the
evaluator lowers them to triple patterns with fresh variables.

A query's answer has one form, ``SolutionSequence``: rows of the store's
term ids with the store's texts, which ``evaluate`` returns and every
reader, the serializers and ``analysis`` included, takes as it is.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Union

from ..record import Frozen, Record, set_field
from ..terms import Iri, Literal, PrefixMap, Term, decode_term

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


class SolutionSequence(Record):
    """Projected result rows in deterministic order, as the store's term
    ids: ``variables`` is the head; ``names`` are the projected variables
    that the rows bind, which a variable bound in no row is left out of;
    ``ids`` holds one tuple of those variables' ids per row; and
    ``texts`` are the store's canonical texts, by id. ``rows`` decodes
    each row into a ``{name: term}`` dict, each distinct id once, only
    when first read; the serializers read the ids and texts instead."""

    _fields = ("variables", "rows")

    def __init__(
        self,
        variables: tuple[str, ...],
        names: tuple[str, ...],
        ids: list[tuple[int, ...]],
        texts: list[str],
    ) -> None:
        self.variables = variables
        self.names = names
        self.ids = ids
        self.texts = texts
        self._rows: Optional[list[dict[str, Term]]] = None

    @property
    def rows(self) -> list[dict[str, Term]]:
        if self._rows is None:
            texts = self.texts
            term = cache(lambda i: decode_term(texts[i]))
            self._rows = [dict(zip(self.names, map(term, row))) for row in self.ids]
        return self._rows

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.rows)

"""Reference evaluator used as the query-engine oracle.

Deliberately naive: linear scans over the quad set, nested-loop joins,
direct path traversal, no indexes and no join reordering. It shares the
parsed AST and term types with the engine but none of the evaluation
code, and reimplements the documented semantics independently:

- multiple FROM graphs merge into one triple set (duplicates collapse)
- GRAPH <g> matches only graphs in the named set; the default-graph
  alias IRI stands for the store default
- an xsd:boolean's effective boolean value is true for ``"true"`` and
  ``"1"``, false for ``"false"``, ``"0"`` and an invalid lexical form
- FILTER keeps rows whose expression is true; an erroring expression
  drops the row; false on one side of && beats an error on the other
- equality is by numeric value across numeric datatypes, by instant for
  dateTimes, by lexical form for plain strings, by truth value for valid
  booleans (``"1"`` is ``true``), term identity otherwise;
  mismatched literal datatypes are an error, mismatched term kinds false;
  a numeric lexical form that spells no finite number (``NaN``, ``sNaN``,
  ``INF``, ``Infinity``) is an error
- year, month and day are the parts of a dateTime's instant in UTC, as
  the evaluator reads them; a dateTime whose instant in UTC falls
  outside years 1 to 9999 is an error
- results are projected, sorted by the canonical term encoding of the
  projected bindings, then cut by LIMIT
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction

from energykg.sparql.ast import (
    BGP,
    And,
    Constant,
    DEFAULT_GRAPH_ALIAS,
    DateFunc,
    Equals,
    Filter,
    Graph,
    Join,
    SequencePath,
    Variable,
)
from energykg.terms import BlankNode, Iri, Literal

_XSD = "http://www.w3.org/2001/XMLSchema#"
_NUMERIC = {_XSD + "integer", _XSD + "decimal", _XSD + "double"}
_DATETIME = _XSD + "dateTime"
_STRING = _XSD + "string"
_BOOLEAN = _XSD + "boolean"


class _Error(Exception):
    pass


def _encode(term) -> str:
    if isinstance(term, Literal):
        return f'"{term.lexical}"^^<{term.datatype.value}>'
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return f"_:{term.label}"


def _triples_of(quads, graphs) -> list[tuple]:
    wanted = set(graphs)
    seen = set()
    out = []
    for quad in quads:
        if quad.graph in wanted:
            triple = (quad.subject, quad.predicate, quad.object)
            if triple not in seen:
                seen.add(triple)
                out.append(triple)
    return out


def naive_evaluate(ds, query):
    """Rows of the query over the dataset, mirroring the engine contract."""
    quads = ds.match()
    if query.dataset_clauses:
        defaults, named = [], set()
        for clause in query.dataset_clauses:
            is_alias = clause.graph.value == DEFAULT_GRAPH_ALIAS
            if clause.named:
                if not is_alias:
                    named.add(clause.graph)
            else:
                graph = None if is_alias else clause.graph
                if graph not in defaults:
                    defaults.append(graph)
    else:
        defaults = [None]
        named = {quad.graph for quad in quads if quad.graph is not None}

    rows = _eval(query.pattern, defaults, named, quads)
    names = [v.name for v in query.projection]
    projected = [{n: row[n] for n in names if n in row} for row in rows]
    projected.sort(key=lambda row: tuple(_encode(row[n]) if n in row else "" for n in names))
    if query.limit is not None:
        projected = projected[: query.limit]
    return projected


def _eval(pattern, defaults, named, quads):
    if isinstance(pattern, BGP):
        return _eval_bgp(pattern.patterns, _triples_of(quads, defaults))
    if isinstance(pattern, Graph):
        if pattern.name.value == DEFAULT_GRAPH_ALIAS:
            return _eval(pattern.pattern, defaults, named, quads)
        if pattern.name not in named:
            return []
        return _eval(pattern.pattern, [pattern.name], named, quads)
    if isinstance(pattern, Join):
        out = []
        for a in _eval(pattern.left, defaults, named, quads):
            for b in _eval(pattern.right, defaults, named, quads):
                merged = _merge(a, b)
                if merged is not None:
                    out.append(merged)
        return out
    if isinstance(pattern, Filter):
        return [
            row
            for row in _eval(pattern.pattern, defaults, named, quads)
            if _truth(pattern.expression, row)
        ]
    raise AssertionError(f"unexpected pattern {pattern!r}")


def _merge(a, b):
    for key, value in a.items():
        if key in b and b[key] != value:
            return None
    merged = dict(a)
    merged.update(b)
    return merged


def _path_pairs(path, triples):
    if isinstance(path, SequencePath):
        left = _path_pairs(path.left, triples)
        right = _path_pairs(path.right, triples)
        return [(s, o) for s, mid in left for mid2, o in right if mid == mid2]
    return [(s, o) for s, p, o in triples if p == path]


def _bind(row, slots):
    out = dict(row)
    for slot, value in slots:
        if isinstance(slot, Variable):
            if slot.name in out:
                if out[slot.name] != value:
                    return None
            else:
                out[slot.name] = value
        elif slot != value:
            return None
    return out


def _eval_bgp(patterns, triples):
    rows = [dict()]
    for tp in patterns:
        next_rows = []
        for row in rows:
            if isinstance(tp.predicate, SequencePath):
                for s, o in _path_pairs(tp.predicate, triples):
                    bound = _bind(row, [(tp.subject, s), (tp.object, o)])
                    if bound is not None:
                        next_rows.append(bound)
            else:
                for s, p, o in triples:
                    bound = _bind(row, [(tp.subject, s), (tp.predicate, p), (tp.object, o)])
                    if bound is not None:
                        next_rows.append(bound)
        rows = next_rows
    return rows


# -- expressions --------------------------------------------------------------


def _truth(expression, row) -> bool:
    try:
        return _ebv(_value(expression, row))
    except _Error:
        return False


def _value(expression, row):
    if isinstance(expression, Variable):
        if expression.name not in row:
            raise _Error("unbound")
        return row[expression.name]
    if isinstance(expression, Constant):
        return expression.value
    if isinstance(expression, DateFunc):
        argument = _value(expression.argument, row)
        if not (isinstance(argument, Literal) and argument.datatype.value == _DATETIME):
            raise _Error("not a dateTime")
        return getattr(_instant(argument.lexical), expression.component)
    if isinstance(expression, Equals):
        return _eq(_value(expression.left, row), _value(expression.right, row))
    if isinstance(expression, And):
        left = _maybe(expression.left, row)
        right = _maybe(expression.right, row)
        if left is False or right is False:
            return False
        if left is None or right is None:
            raise _Error("error in &&")
        return True
    raise _Error(f"unknown expression {expression!r}")


def _maybe(expression, row):
    try:
        return _ebv(_value(expression, row))
    except _Error:
        return None


def _instant(lexical: str) -> datetime:
    text = lexical[:-1] + "+00:00" if lexical.endswith("Z") else lexical
    try:
        value = datetime.fromisoformat(text)
    except ValueError:
        raise _Error("bad dateTime")
    if value.tzinfo is None:
        raise _Error("naive dateTime")
    try:
        return value.astimezone(timezone.utc)
    except OverflowError:
        raise _Error("dateTime out of range in UTC")


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Literal) and value.datatype.value in _NUMERIC:
        # Fraction reads only finite numbers: NaN and infinities raise ValueError.
        try:
            return Fraction(value.lexical)
        except (ValueError, ZeroDivisionError):
            raise _Error("bad numeric")
    return None


def _ebv(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    if isinstance(value, Literal):
        if value.datatype.value == _BOOLEAN:
            # Only "true" and "1" are true; "0", "false" and any invalid form are false.
            return value.lexical in ("true", "1")
        if value.datatype.value in _NUMERIC:
            number = _number(value)
            return number != 0
        if value.datatype.value == _STRING:
            return value.lexical != ""
    raise _Error("no boolean value")


def _eq(a, b) -> bool:
    a_number = _number(a)
    b_number = _number(b)
    if a_number is not None and b_number is not None:
        return a_number == b_number
    # An = gives an xsd:boolean, which compares as that literal.
    a, b = (Literal(str(x).lower(), Iri(_BOOLEAN)) if isinstance(x, bool) else x for x in (a, b))
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a.datatype.value == _DATETIME and b.datatype.value == _DATETIME:
            return _instant(a.lexical) == _instant(b.lexical)
        if a.datatype.value == _STRING and b.datatype.value == _STRING:
            return a.lexical == b.lexical
        if a.datatype.value == _BOOLEAN and b.datatype.value == _BOOLEAN:
            truth = {"true": True, "1": True, "false": False, "0": False}
            if a.lexical in truth and b.lexical in truth:
                return truth[a.lexical] == truth[b.lexical]
        if a == b:
            return True
        raise _Error("incomparable literals")
    if isinstance(a, Iri) and isinstance(b, Iri):
        return a == b
    if isinstance(a, BlankNode) and isinstance(b, BlankNode):
        return a == b
    if isinstance(a, (Iri, BlankNode, Literal)) and isinstance(b, (Iri, BlankNode, Literal)):
        return False
    raise _Error("incomparable values")


def row_multiset(rows) -> Counter:
    """Hashable multiset view of rows for order-insensitive comparison."""
    return Counter(
        tuple(sorted((name, _encode(term)) for name, term in row.items())) for row in rows
    )

"""Seeded generator of random datasets and query texts from the subset grammar.

Queries are produced as text so every oracle comparison also exercises
the parser. Constants are drawn mostly from the dataset so patterns hit;
the numeric pool sticks to short exact decimals. A group is sometimes one
GRAPH block and a FILTER, and a FILTER is an ``&&`` chain whose conjuncts
read variables drawn apart, so the oracle also judges conjuncts that the
engine tests at different steps of a BGP's plan.

With ``rare``, the data also holds xsd:boolean literals, some of invalid
lexical form, and the queries also take shapes that the others lack: a
GRAPH block on the default-graph alias, a conjunct that is a bare term or
a date part, one that equates a date part with a variable, a date
function of a constant, and parentheses around a conjunct. Without it,
each seed gives the datasets and queries that it always gave.
"""

from __future__ import annotations

import random

from energykg.dataset import Dataset
from energykg.sparql.ast import DEFAULT_GRAPH_ALIAS
from energykg.terms import (
    Iri, Literal, Quad, XSD_BOOLEAN, XSD_DATETIME, XSD_DECIMAL, XSD_INTEGER,
)

from stores import quad_store

BASE = "http://example.org/"
NAMED_GRAPHS = (Iri(BASE + "g1"), Iri(BASE + "g2"))
_ALIAS = Iri(DEFAULT_GRAPH_ALIAS)
# Terms that a rare conjunct is made of alone: a true and a false one of
# each kind that has an effective boolean value, an invalid boolean, which
# is false, and an IRI, which has none.
_BARE_TERMS = (
    "3", "0", "1.5", "0.0", '"x"', '""', "true", "false",
    f'"1"^^<{XSD_BOOLEAN.value}>', f'"0"^^<{XSD_BOOLEAN.value}>',
    f'"maybe"^^<{XSD_BOOLEAN.value}>', f"<{BASE}s0>",
)
_DATES = [
    Literal(f"201{y}-0{m}-0{d}T0{h}:00:00Z", XSD_DATETIME)
    for y, m, d, h in ((6, 5, 1, 0), (6, 5, 1, 3), (6, 5, 2, 0), (7, 1, 3, 5))
]
# Where each date part stands in such a lexical form.
_PARTS = {"year": slice(0, 4), "month": slice(5, 7), "day": slice(8, 10)}


def _literal_pool(rnd: random.Random, rare: bool) -> list[Literal]:
    pool = [Literal(w) for w in ("red", "green", "blue", "")]
    if rare:
        pool += [Literal(w, XSD_BOOLEAN) for w in ("true", "false", "1", "0", "maybe")]
    pool += [Literal(str(n), XSD_INTEGER) for n in (0, 1, 2, 7, 42)]
    pool += [Literal(t, XSD_DECIMAL) for t in ("1.5", "2.25", "7.0", "0.5")]
    pool += _DATES
    rnd.shuffle(pool)
    return pool


def random_dataset(rnd: random.Random, max_quads: int = 200, rare: bool = False) -> Dataset:
    subjects = [Iri(BASE + f"s{i}") for i in range(rnd.randint(2, 8))]
    predicates = [Iri(BASE + f"p{i}") for i in range(rnd.randint(2, 5))]
    objects = subjects + predicates + _literal_pool(rnd, rare)
    graphs = [None, None, NAMED_GRAPHS[0], NAMED_GRAPHS[1]]
    return quad_store(
        Quad(rnd.choice(subjects), rnd.choice(predicates), rnd.choice(objects), rnd.choice(graphs))
        for _ in range(rnd.randint(1, max_quads))
    )


def _render(term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    lexical = term.lexical.replace("\\", "\\\\").replace('"', '\\"')
    if term.datatype.value.endswith("#string"):
        return f'"{lexical}"'
    return f'"{lexical}"^^<{term.datatype.value}>'


class _QueryBuilder:
    def __init__(self, rnd: random.Random, ds: Dataset, rare: bool) -> None:
        self.rnd = rnd
        self.rare = rare
        self.quads = ds.match() or [Quad(Iri(BASE + "s0"), Iri(BASE + "p0"), Literal("x"))]
        self.variables = [f"v{i}" for i in range(6)]
        self.used_vars: set[str] = set()
        # (variable, term) for each object variable of a pattern drawn from the data.
        self.hints: list[tuple[str, object]] = []
        self.predicates = sorted({q.predicate.value for q in self.quads})

    def _var(self) -> str:
        name = self.rnd.choice(self.variables)
        self.used_vars.add(name)
        return f"?{name}"

    def _term_from_data(self, position: str) -> str:
        quad = self.rnd.choice(self.quads)
        term = getattr(quad, position)
        return _render(term)

    def _subject(self) -> str:
        roll = self.rnd.random()
        if roll < 0.5:
            return self._var()
        if roll < 0.9:
            return self._term_from_data("subject")
        return f"<{BASE}nowhere{self.rnd.randint(0, 3)}>"

    def _object(self) -> str:
        roll = self.rnd.random()
        if roll < 0.45:
            return self._var()
        if roll < 0.9:
            return self._term_from_data("object")
        return f'"missing{self.rnd.randint(0, 3)}"'

    def _predicate(self) -> str:
        roll = self.rnd.random()
        if roll < 0.15:
            return self._var()
        if roll < 0.85 or len(self.predicates) < 2:
            return f"<{self.rnd.choice(self.predicates)}>"
        first, second = self.rnd.sample(self.predicates, 2)
        return f"<{first}>/<{second}>"

    def _triple(self, allow_all_vars: bool) -> str:
        while True:
            snapshot = set(self.used_vars)
            text = f"{self._subject()} {self._predicate()} {self._object()} ."
            if allow_all_vars or text.count("?") < 3:
                return text
            # Rejected roll: variables it introduced are not in the pattern.
            self.used_vars = snapshot

    def _bgp(self, count: int) -> str:
        lines = []
        all_vars_budget = 1
        for _ in range(count):
            allow = all_vars_budget > 0
            line = self._triple(allow)
            if line.count("?") == 3:
                all_vars_budget -= 1
            lines.append(line)
        return "\n  ".join(lines)

    def _star(self, graph) -> str:
        """Patterns that the graph's data matches: up to three triples of
        one subject, with the subject and most objects as variables."""
        quads = [quad for quad in self.quads if quad.graph == graph] or self.quads
        subject = self.rnd.choice(quads).subject
        picks = [quad for quad in quads if quad.subject == subject]
        self.rnd.shuffle(picks)
        center = self._var()
        lines = []
        for quad in picks[:3]:
            name = self.rnd.choice(self.variables)
            if f"?{name}" == center or self.rnd.random() < 0.2:
                obj = _render(quad.object)
            else:
                obj = f"?{name}"
                self.used_vars.add(name)
                self.hints.append((obj, quad.object))
            lines.append(f"{center} <{quad.predicate.value}> {obj} .")
        return "\n  ".join(lines)

    def _rare_conjunct(self, bound: list[str]) -> str:
        a = f"?{self.rnd.choice(bound)}"
        part = self.rnd.choice(["year", "month", "day"])
        kind = self.rnd.random()
        if kind < 0.25:
            return self.rnd.choice(_BARE_TERMS)
        if kind < 0.4:
            return self.rnd.choice((a, f"{part}({a})"))
        if kind < 0.55:
            return f"{part}({a}) = ?{self.rnd.choice(bound)}"
        if kind < 0.8:
            # A date function of a constant, mostly a dateTime, equated
            # mostly with the part that the constant spells.
            term = self.rnd.choice(_DATES + [Literal("2016-05-01T00:00:00Z")])
            other = f"{part}({a})" if self.rnd.random() < 0.3 else int(term.lexical[_PARTS[part]])
            return f"{part}({_render(term)}) = {other}"
        return f"({self._conjunct(bound)})"

    def _conjunct(self, bound: list[str]) -> str:
        if self.rare and self.rnd.random() < 0.4:
            return self._rare_conjunct(bound)
        if self.hints and self.rnd.random() < 0.4:
            # True where the variable holds the object it was drawn from.
            variable, term = self.rnd.choice(self.hints)
            if isinstance(term, Literal) and term.datatype == XSD_DATETIME:
                return f"month({variable}) = {int(term.lexical[5:7])}"
            return f"{variable} = {_render(term)}"
        kind = self.rnd.random()
        # Objects drawn from the data hold literals more often than others.
        objects = [variable for variable, _ in self.hints]
        if not objects or self.rnd.random() < 0.5:
            objects = [f"?{name}" for name in bound]
        a = self.rnd.choice(objects)
        # Mostly the same variable again, a conjunct that more rows pass.
        b = a if self.rnd.random() < 0.5 else f"?{self.rnd.choice(bound)}"
        if kind < 0.3:
            return f"{a} = {b}"
        if kind < 0.55:
            return f"{a} = {_render(self.rnd.choice(self.quads).object)}"
        if kind < 0.8:
            part = self.rnd.choice(["year", "month", "day"])
            return f"{part}({a}) = {part}({b})"
        return f"year({a}) = 2016"

    def _filter(self) -> str:
        """A FILTER of one to three conjuncts, each over variables drawn
        apart, so that a BGP's plan binds them at different steps."""
        bound = sorted(self.used_vars)
        if not bound:
            return ""
        conjuncts = [self._conjunct(bound) for _ in range(self.rnd.choice((1, 1, 2, 3)))]
        return f"  FILTER ({' && '.join(conjuncts)})\n"

    def build(self) -> str:
        graph = self.rnd.choice(NAMED_GRAPHS)
        if self.rare and self.rnd.random() < 0.3:
            graph = _ALIAS
        if self.rnd.random() < 0.2:
            # A group that is one GRAPH block and a FILTER, as the
            # endpoint's month query is.
            if self.rnd.random() < 0.6:
                # The alias's graph is the default one, where the
                # generator's store holds the quads of the graph None.
                inner = self._star(None if graph == _ALIAS else graph)
            else:
                inner = self._bgp(self.rnd.randint(1, 3))
            body = f"  GRAPH <{graph.value}> {{\n  {inner}\n  }}\n"
        else:
            top = self._star(None) if self.rnd.random() < 0.3 else self._bgp(self.rnd.randint(1, 3))
            body = "  " + top + "\n"
            if self.rnd.random() < 0.4:
                inner = self._bgp(self.rnd.randint(1, 2))
                body += f"  GRAPH <{graph.value}> {{\n  {inner}\n  }}\n"
        body += self._filter()

        clauses = ""
        if self.rnd.random() < 0.45:
            picks = []
            if self.rnd.random() < 0.6:
                picks.append("FROM <urn:x-arq:DefaultGraph>")
            for graph in NAMED_GRAPHS:
                if self.rnd.random() < 0.35:
                    picks.append(f"FROM <{graph.value}>")
                if self.rnd.random() < 0.5:
                    picks.append(f"FROM NAMED <{graph.value}>")
            if not picks:
                picks.append("FROM <urn:x-arq:DefaultGraph>")
            clauses = "\n".join(picks) + "\n"

        projected = sorted(self.used_vars)
        if not projected:
            return None
        self.rnd.shuffle(projected)
        projected = projected[: self.rnd.randint(1, len(projected))]
        limit = f"\nLIMIT {self.rnd.randint(0, 12)}" if self.rnd.random() < 0.3 else ""
        select = " ".join(f"?{name}" for name in projected)
        return f"SELECT {select}\n{clauses}WHERE {{\n{body}}}{limit}\n"


def random_query_text(rnd: random.Random, ds: Dataset, rare: bool = False) -> str:
    while True:
        text = _QueryBuilder(rnd, ds, rare).build()
        if text is not None:
            return text

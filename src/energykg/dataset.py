"""In-memory quad store with per-graph subject/predicate/object indexes.

A Dataset is built single-threaded, then frozen; a frozen dataset is an
immutable snapshot that any number of readers may share. Quads have set
semantics: inserting a duplicate is a no-op.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .errors import EnergyKgError
from .terms import GraphName, Iri, Quad, Term, quad_key


class _Any:
    def __repr__(self) -> str:
        return "ANY"


ANY = _Any()

Pattern = Union[Term, None, _Any]


class FrozenDatasetError(EnergyKgError):
    """Mutation attempted after freeze()."""


class Dataset:
    def __init__(self, quads: Iterable[Quad] = ()) -> None:
        self._quads: set[Quad] = set()
        self._by_graph: dict[GraphName, list[Quad]] = {}
        self._by_gs: dict[tuple[GraphName, Term], list[Quad]] = {}
        self._by_gp: dict[tuple[GraphName, Iri], list[Quad]] = {}
        self._by_go: dict[tuple[GraphName, Term], list[Quad]] = {}
        self._frozen = False
        for quad in quads:
            self.add(quad)

    def add(self, quad: Quad) -> None:
        if self._frozen:
            raise FrozenDatasetError("dataset is frozen")
        if quad in self._quads:
            return
        self._quads.add(quad)
        g = quad.graph
        self._by_graph.setdefault(g, []).append(quad)
        self._by_gs.setdefault((g, quad.subject), []).append(quad)
        self._by_gp.setdefault((g, quad.predicate), []).append(quad)
        self._by_go.setdefault((g, quad.object), []).append(quad)

    def add_all(self, quads: Iterable[Quad]) -> None:
        for quad in quads:
            self.add(quad)

    def freeze(self) -> "Dataset":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __len__(self) -> int:
        return len(self._quads)

    def __contains__(self, quad: Quad) -> bool:
        return quad in self._quads

    def __iter__(self) -> Iterator[Quad]:
        return iter(self._quads)

    def graphs(self) -> list[Iri]:
        """Named graphs present, in canonical order."""
        return sorted(
            (g for g in self._by_graph if g is not None), key=lambda g: g.value
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
        graph. With a bound graph the narrowest available index bucket is
        scanned; a wildcard graph falls back to a full scan.
        """
        candidates = self._candidates(subject, predicate, object, graph)
        out = [
            q
            for q in candidates
            if (subject is ANY or q.subject == subject)
            and (predicate is ANY or q.predicate == predicate)
            and (object is ANY or q.object == object)
            and (graph is ANY or q.graph == graph)
        ]
        out.sort(key=quad_key)
        return out

    def _candidates(
        self,
        subject: Pattern,
        predicate: Pattern,
        object: Pattern,
        graph: Union[GraphName, _Any],
    ) -> Iterable[Quad]:
        if isinstance(graph, _Any):
            return self._quads
        buckets = []
        if not isinstance(subject, _Any):
            buckets.append(self._by_gs.get((graph, subject), []))
        if not isinstance(predicate, _Any):
            buckets.append(self._by_gp.get((graph, predicate), []))
        if not isinstance(object, _Any):
            buckets.append(self._by_go.get((graph, object), []))
        if not buckets:
            return self._by_graph.get(graph, [])
        return min(buckets, key=len)

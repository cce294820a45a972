"""The one way the tests build a store, the route ``turtle.load_turtle``
takes: canonical term texts interned inside ``Dataset.interning()``,
inserted with ``add_ids`` one graph at a time, and the store frozen."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from energykg.climate import ClimateObservation, observation_triples
from energykg.dataset import Dataset
from energykg.headings import DeviceHeading
from energykg.namespaces import DEFAULT_BASE, cossmic_graph, device_resource
from energykg.terms import GraphName, Iri, Quad, TextTriple, term_key
from energykg.uplift import EnergyTable, evaluation_triples, station_link, topology_triples


def store(*graphs: tuple[GraphName, Iterable[TextTriple]]) -> Dataset:
    """The frozen store of each (graph, triples of canonical texts) pair."""
    ds = Dataset()
    for graph, triples in graphs:
        with ds.interning() as ids:
            found = [(ids[s], ids[p], ids[o]) for s, p, o in triples]
        ds.add_ids(found, graph)
    return ds.freeze()


def quad_store(quads: Iterable[Quad] = ()) -> Dataset:
    """The frozen store of the quads, each term interned by its ``term_key``."""
    graphs: dict[GraphName, list[TextTriple]] = {}
    for quad in quads:
        terms = (quad.subject, quad.predicate, quad.object)
        graphs.setdefault(quad.graph, []).append(tuple(map(term_key, terms)))
    return store(*graphs.items())


def pipeline_store(
    table: EnergyTable,
    observations: Sequence[ClimateObservation],
    station: Iri,
    headings: Sequence[DeviceHeading] = (),
) -> Dataset:
    """The store that ``uplift`` and ``climate`` write, from the
    generators' texts: the headings' topology, the table's evaluations
    and the network's link to the station in the cossmic graph, and the
    observations in the default graph."""
    network = device_resource(DEFAULT_BASE, "DE_KN_COSSMIC")
    cossmic = chain(
        topology_triples(headings) if headings else (),
        evaluation_triples(table),
        [station_link(network, station)],
    )
    return store((cossmic_graph(), cossmic), (None, observation_triples(observations)))

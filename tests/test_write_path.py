"""The write path of uplift and climate: each triple's canonical texts,
listed flat, written without a store.

Writing triples with repeats, in any order, must give the bytes that
writing the same set from a ``Dataset`` gives, Turtle and sidecar alike,
and the same document order.
And since each minted IRI is checked once per distinct value it is
minted from rather than once per triple, every IRI text the generators
yield must pass ``check_iri`` whenever the generator did not raise.
"""

from __future__ import annotations

import io
import random
import string
from datetime import datetime, timezone
from decimal import Decimal
from itertools import chain
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import naive_turtle
from stores import quad_store
from energykg import cli, snapshot, turtle_writer
from energykg.climate import ClimateObservation, observation_triples
from energykg.dataset import Dataset
from energykg.errors import EnergyKgError
from energykg.headings import parse_heading
from energykg.namespaces import RDF_TYPE, device_resource, station_resource
from energykg.terms import (
    BlankNode,
    Iri,
    Literal,
    PrefixMap,
    Quad,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_STRING,
    check_iri,
    literal_parts,
    term_key,
)
from energykg.turtle import load_turtle
from energykg.uplift import EnergyTable, evaluation_triples, station_link, topology_triples

_EX = "http://example.org/"
_iris = st.builds(
    lambda tail: Iri(_EX + tail),
    st.text(alphabet=string.ascii_letters + string.digits + "/_-.:", max_size=6),
)
_literals = st.builds(
    Literal,
    st.text(max_size=6) | st.sampled_from(['a"b', "x\\y", "line\nbreak"]),
    st.sampled_from([XSD_STRING, XSD_DECIMAL, XSD_DATETIME]),
)
_subjects = st.one_of(_iris, st.builds(BlankNode, st.sampled_from(["b0", "x"])))
_triples = st.tuples(_subjects, st.one_of(st.just(RDF_TYPE), _iris), st.one_of(_iris, _literals))
_graphs = st.sampled_from([None, Iri(_EX + "g")])


def _prefixes(bindings) -> PrefixMap:
    prefixes = PrefixMap(base=Iri(_EX))
    for label, namespace in bindings:
        prefixes.bind(label, Iri(namespace))
    return prefixes


def _written(path: Path) -> tuple[bytes, bytes | None]:
    sidecar = Path(str(path) + ".ekg")
    return path.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None


def _flat(triples) -> list[str]:
    """Each triple's subject, predicate and object text in turn."""
    return [term_key(term) for term in chain.from_iterable(triples)]


_BINDINGS = [("ex", _EX), ("", _EX + "s"), ("e", _EX + "a/")]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    unique=st.lists(_triples, max_size=25, unique=True),
    bindings=st.lists(st.sampled_from(_BINDINGS), unique=True),
)
def test_shuffled_and_repeated_triples_write_the_same_turtle_and_document_order(
    data, unique, bindings
):
    repeats = data.draw(st.lists(st.sampled_from(unique), max_size=15)) if unique else []
    shuffled = data.draw(st.permutations(unique + repeats))
    prefixes = _prefixes(bindings)
    written = []
    for triples in (unique, shuffled):
        out = io.StringIO()
        document = turtle_writer.write_turtle(out, _flat(triples), prefixes)
        written.append((out.getvalue(), document))
    assert written[0] == written[1]


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    data=st.data(),
    unique=st.lists(_triples, max_size=25),
    graph=_graphs,
    bindings=st.lists(st.sampled_from(_BINDINGS), unique=True),
)
def test_repeated_triples_in_any_order_write_as_their_set(tmp_path, data, unique, graph, bindings):
    repeats = data.draw(st.lists(st.sampled_from(unique), max_size=15)) if unique else []
    triples = data.draw(st.permutations(unique + repeats))
    prefixes = _prefixes(bindings)
    path = tmp_path / "minted.ttl"
    cli._write_store(str(path), _flat(triples), graph, prefixes)

    ds = quad_store(Quad(s, p, o, graph) for s, p, o in triples)
    expected = tmp_path / "from_dataset.ttl"
    texts = ds.texts()
    ds_texts = [texts[i] for i in chain.from_iterable(ds.triples(None, None, None, graph))]
    cli._write_store(str(expected), ds_texts, graph, prefixes)

    assert _written(path) == _written(expected)
    marker = "" if graph is None else f"# graph <{graph.value}>\n"
    reference = naive_turtle.serialize_turtle(ds, graph, prefixes)
    assert path.read_text(encoding="utf-8") == marker + reference


def test_a_graph_of_many_write_chunks_writes_as_the_reference_and_loads_as_parsed(tmp_path):
    # Enough subjects that the writer flushes several chunks, each cutting
    # a subject's block or a predicate's objects somewhere.
    rnd = random.Random(15)
    graph = Iri(_EX + "g")
    subjects = [Iri(_EX + f"s{n}") for n in range(5000)]
    predicates = [RDF_TYPE, Iri(_EX + "p"), Iri(_EX + "s/q"), Iri(_EX + "a/b-c")]
    objects = [
        *subjects[::7],
        *(Literal(f"{n / 8}", XSD_DECIMAL) for n in range(300)),
        Literal('a"b\n', XSD_STRING),
        Literal("2016-01-01T00:00:00Z", XSD_DATETIME),
    ]
    triples = [
        (subject, rnd.choice(predicates), rnd.choice(objects))
        for subject in subjects
        for _ in range(rnd.randint(1, 4))
    ]
    ds = quad_store(Quad(s, p, o, graph) for s, p, o in triples)
    assert len(ds) > 2 * turtle_writer._CHUNK
    prefixes = _prefixes(_BINDINGS)
    path = tmp_path / "many.ttl"
    cli._write_store(str(path), _flat(triples), graph, prefixes)

    text = path.read_text(encoding="utf-8")
    assert text == f"# graph <{graph.value}>\n" + naive_turtle.serialize_turtle(ds, graph, prefixes)
    from_sidecar, parsed = Dataset(), Dataset()
    with path.open("rb") as turtle:
        assert snapshot.read(str(path) + snapshot.SUFFIX, turtle).load(from_sidecar, graph)
    load_turtle(parsed, text, graph=graph)
    from_sidecar.freeze()
    parsed.freeze()
    assert from_sidecar.texts() == parsed.texts()
    assert list(from_sidecar.graph(graph).triples) == list(parsed.graph(graph).triples)
    assert from_sidecar.match() == parsed.match() == ds.match()


def _iri_texts(texts):
    """Every IRI in the texts: the IRIs themselves and literals' datatypes."""
    for text in texts:
        yield text[1:-1] if text[0] == "<" else literal_parts(text)[1]


_BASES = [
    Iri(base)
    for base in ("http://jresearch.ucd.ie/climate-kg/", "urn:x:base/", "http://e.org/a?b=")
]
_headings = st.builds(
    lambda kind, site, segments, instance: parse_heading(
        f"DE_KN_{kind}{site}_" + "_".join(segments) + ("" if instance is None else f"_{instance}")
    ),
    st.sampled_from(["industrial", "residential", "public"]),
    st.integers(1, 99),
    st.lists(
        st.sampled_from(["pv", "grid", "import", "export", "heat", "x1"]), min_size=1, max_size=3
    ),
    st.none() | st.integers(1, 9),
)
_instants = st.datetimes(
    min_value=datetime(1900, 1, 2), max_value=datetime(2200, 1, 1), timezones=st.just(timezone.utc)
)
# Characters that an IRI forbids; station ids and datatype codes also
# draw from characters it allows.
_FORBIDDEN = set(' <>{}|^`\\"')
_names = st.text(
    alphabet=string.ascii_letters + string.digits + ":_-./#%?" + "".join(_FORBIDDEN),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from(_BASES),
    headings=st.lists(_headings, min_size=1, max_size=6, unique_by=lambda heading: heading.raw),
    instants=st.lists(_instants, min_size=1, max_size=5, unique=True),
    stations=st.lists(_names, min_size=1, max_size=3),
    codes=st.lists(_names, min_size=1, max_size=3),
)
def test_every_minted_iri_passes_check_iri(base, headings, instants, stations, codes):
    table = EnergyTable(instants, {h.raw: [Decimal("1.5")] * len(instants) for h in headings})
    network = device_resource(base, headings[0].network_name)
    texts = list(chain.from_iterable(topology_triples(headings, base)))
    texts += chain.from_iterable(evaluation_triples(table, base))
    texts += station_link(network, station_resource(base, "GHCND:X"), base)
    days = sorted({datetime(t.year, t.month, t.day, tzinfo=timezone.utc) for t in instants})
    observations = [
        ClimateObservation(station, day, code, Decimal("-0.25"))
        for station in stations
        for code in codes
        for day in days
    ]
    minted = observation_triples(observations, base)
    try:
        for triple in minted:
            texts += triple
    except EnergyKgError:
        # The check that rejected the input ran; one id or code has a
        # character that an IRI forbids.
        assert any(_FORBIDDEN.intersection(name) for name in (*stations, *codes))
    else:
        assert not any(_FORBIDDEN.intersection(name) for name in (*stations, *codes))
    for value in _iri_texts(texts):
        assert check_iri(value) == value


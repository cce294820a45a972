"""The snapshot sidecar that uplift and climate write beside each Turtle
file, against parsing that Turtle.

A store loaded through its sidecars must equal the store parsed from its
Turtle in everything a reader sees or whose order shows in an answer: the
texts and ranks, each graph's triple set in iteration order, each index
bucket's order, and every query's result bytes. A sidecar that is damaged,
stale or foreign must be ignored, so the load gives the Turtle's result or
its error.
"""

from __future__ import annotations

import os
import random
import struct
import string
from binascii import crc32
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import querygen
from energykg import cli, snapshot, turtle
from energykg.cli import load_store
from energykg.config import PipelineConfig
from energykg.dataset import Dataset
from energykg.errors import EnergyKgError
from energykg.namespaces import RDF_TYPE
from energykg.sparql import evaluate, parse_query, to_results_json
from energykg.terms import BlankNode, Iri, Literal, PrefixMap, Quad, XSD_DECIMAL, XSD_STRING

_GOLDEN = Path(__file__).parent / "data" / "analyze_golden"
_GRAPHS = (querygen.NAMED_GRAPHS[0], querygen.NAMED_GRAPHS[1], None)
_BASES = (None, "http://example.org/", "http://example.org/a/b?c", "urn:x:base/")


def _prefixes(base):
    prefixes = PrefixMap(base=None if base is None else Iri(base))
    prefixes.bind("", Iri(querygen.BASE))
    prefixes.bind("ex", Iri(querygen.BASE + "s"))
    prefixes.bind("xsd", Iri("http://www.w3.org/2001/XMLSchema#"))
    return prefixes


def _write_store(path: str, ds: Dataset, graph, base) -> None:
    """The dataset's graph as a Turtle file with its sidecar, as uplift and climate write them."""
    triples = list(chain.from_iterable(ds.triples(None, None, None, graph)))
    cli._write_store(path, ds.texts(), triples, graph, _prefixes(base))


def _write_stores(directory: Path, ds: Dataset, graphs, base) -> list[str]:
    """One Turtle file, with its sidecar, per graph."""
    paths = []
    for number, graph in enumerate(graphs):
        path = str(directory / f"store{number}.ttl")
        _write_store(path, ds, graph, base)
        paths.append(path)
    return paths


def _config(base) -> PipelineConfig:
    return PipelineConfig() if base is None else PipelineConfig(base=base)


def _view(ds: Dataset) -> dict:
    """Everything about a loaded store whose value or order a reader sees."""
    graphs = {}
    for name in [None, *ds.graphs()]:
        store = ds.graph(name)
        if store is not None:
            graphs[name] = (list(store.triples), [list(index.items()) for index in store.index])
    return {"texts": list(ds.texts()), "ranks": list(ds.ranks()), "graphs": graphs}


def _outcome(paths, config):
    """The loaded store's view, or the load's error message."""
    try:
        return _view(load_store(paths, config))
    except EnergyKgError as exc:
        return f"{type(exc).__name__}: {exc}"


def _parsed_outcome(paths, config, directory: Path):
    """The outcome of loading copies of the Turtle files without sidecars."""
    copies = []
    for path in paths:
        copy = directory / ("plain_" + os.path.basename(path))
        copy.write_bytes(Path(path).read_bytes())
        copies.append(str(copy))
    return _outcome(copies, config)


@pytest.fixture()
def turtle_loads(monkeypatch):
    """Counts the files that load_store parses as Turtle."""
    calls = []
    real = turtle.load_turtle

    def counting(ds, text, graph=None, base=None):
        calls.append(graph)
        return real(ds, text, graph=graph, base=base)

    monkeypatch.setattr(turtle, "load_turtle", counting)
    return calls


# -- equal to the parse --------------------------------------------------------

_lexicals = st.text(max_size=12) | st.sampled_from(
    ['a"b', "x\\y", "line\nbreak", "tab\tcr\r", "é☃"]
)
_extra_terms = st.one_of(
    st.builds(
        lambda tail: Iri(querygen.BASE + tail),
        st.text(alphabet=string.ascii_letters + string.digits + "/_-.~%#:", max_size=10),
    ),
    st.just(RDF_TYPE),
    st.builds(Literal, _lexicals, st.sampled_from([XSD_STRING, XSD_DECIMAL])),
)
# rdf:type is written "a" as a predicate and as an IRI elsewhere.
_predicates = st.sampled_from([Iri(querygen.BASE + "p0"), Iri(querygen.BASE + "q"), RDF_TYPE])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    files=st.integers(1, 3),
    extra=st.lists(st.tuples(_extra_terms, _predicates, _extra_terms), max_size=8),
    write_base=st.sampled_from(_BASES),
    load_base=st.sampled_from(_BASES),
)
def test_sidecar_load_equals_the_turtle_parse(
    tmp_path_factory, seed, files, extra, write_base, load_base
):
    directory = tmp_path_factory.mktemp("stores")
    rnd = random.Random(seed)
    generated = querygen.random_dataset(rnd, max_quads=80)
    ds = Dataset(generated)
    for subject, predicate, other in extra:
        # Subjects are IRIs; anything may be an object, predicates too.
        subject = subject if isinstance(subject, Iri) else Iri(querygen.BASE + "lit")
        ds.add(Quad(subject, predicate, other, rnd.choice(_GRAPHS)))
    paths = _write_stores(directory, ds, _GRAPHS[:files], write_base)
    assert all(os.path.exists(path + snapshot.SUFFIX) for path in paths)
    config = _config(load_base)

    from_sidecars = load_store(paths, config)
    assert _view(from_sidecars) == _parsed_outcome(paths, config, directory)
    parsed = load_store(
        [str(directory / ("plain_" + os.path.basename(path))) for path in paths], config
    )
    for _ in range(4):
        # The generator renders no escapes, so its constants come from its own quads.
        text = querygen.random_query_text(rnd, generated)
        query = parse_query(text)
        assert to_results_json(evaluate(from_sidecars, query)) == to_results_json(
            evaluate(parsed, query)
        ), text


def test_uplift_and_climate_stores_load_equal_from_sidecars(tmp_path, turtle_loads):
    config = PipelineConfig(out=str(tmp_path))
    paths = [
        cli.cmd_uplift(str(_GOLDEN / "energy.csv"), config),
        cli.cmd_climate(str(_GOLDEN / "climate.csv"), config),
    ]
    from_sidecars = _view(load_store(paths, config))
    assert turtle_loads == []
    assert from_sidecars == _parsed_outcome(paths, config, tmp_path)


def test_a_store_with_sidecars_is_loaded_without_parsing(tmp_path, turtle_loads):
    ds = querygen.random_dataset(random.Random(3))
    paths = _write_stores(tmp_path, ds, _GRAPHS, "http://example.org/")
    load_store(paths, _config(None))
    assert turtle_loads == []
    os.remove(paths[1] + snapshot.SUFFIX)
    load_store(paths, _config(None))
    assert turtle_loads == [querygen.NAMED_GRAPHS[1]]


def test_a_graph_with_a_blank_node_gets_no_sidecar(tmp_path, turtle_loads):
    path = tmp_path / "store.ttl"
    ds = Dataset([Quad(Iri("http://example.org/s"), Iri("http://example.org/p"), BlankNode("b"))])
    # A sidecar of an earlier graph does not outlive the Turtle it describes.
    _write_store(str(path), querygen.random_dataset(random.Random(1)), None, None)
    assert (tmp_path / "store.ttl.ekg").exists()
    _write_store(str(path), ds, None, None)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.ttl"]
    assert len(load_store([str(path)], _config(None))) == 1
    assert turtle_loads == [None]


# -- damaged, stale or foreign sidecars ------------------------------------------

_HEADER = struct.Struct("<8sIQ8sQQQQ")
_START = _HEADER.size + 4


def _write_two_files(directory: Path) -> list[str]:
    ds = querygen.random_dataset(random.Random(11), max_quads=60)
    return _write_stores(directory, ds, (querygen.NAMED_GRAPHS[0], None), "http://example.org/")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The paths of a two-file store, and its sidecars' bytes."""
    paths = _write_two_files(tmp_path_factory.mktemp("written"))
    return paths, [Path(path + snapshot.SUFFIX).read_bytes() for path in paths]


def _resigned(data: bytes) -> bytes:
    """The sidecar bytes with a CRC that matches their content again."""
    header = data[: _HEADER.size]
    crc = crc32(header, crc32(data[_START:]))
    return header + struct.pack("<I", crc) + data[_START:]


def _with_sidecar(tmp_path, written, damaged: bytes, turtle: bytes = None):
    paths, sidecars = written
    copies = []
    for number, path in enumerate(paths):
        copy = tmp_path / os.path.basename(path)
        copy.write_bytes(Path(path).read_bytes() if number or turtle is None else turtle)
        Path(str(copy) + snapshot.SUFFIX).write_bytes(damaged if number == 0 else sidecars[1])
        copies.append(str(copy))
    return copies


def _assert_ignored(tmp_path, written, turtle_loads, damaged: bytes, turtle: bytes = None):
    copies = _with_sidecar(tmp_path, written, damaged, turtle)
    config = _config(None)
    expected = _parsed_outcome(copies, config, tmp_path)
    del turtle_loads[:]
    assert _outcome(copies, config) == expected
    # The damaged sidecar was parsed around; the intact one was read.
    assert turtle_loads == [querygen.NAMED_GRAPHS[0]]


# The fixtures hold no state that one example could leave for the next.
_FIXTURES_KEPT = [HealthCheck.function_scoped_fixture]


@settings(max_examples=40, deadline=None, suppress_health_check=_FIXTURES_KEPT)
@given(data=st.data())
def test_a_truncated_sidecar_is_ignored(tmp_path_factory, written, turtle_loads, data):
    sidecar = written[1][0]
    end = data.draw(st.integers(0, len(sidecar) - 1))
    _assert_ignored(tmp_path_factory.mktemp("t"), written, turtle_loads, sidecar[:end])


@settings(max_examples=60, deadline=None, suppress_health_check=_FIXTURES_KEPT)
@given(data=st.data())
def test_a_sidecar_with_a_flipped_byte_is_ignored(tmp_path_factory, written, turtle_loads, data):
    sidecar = bytearray(written[1][0])
    at = data.draw(st.integers(0, len(sidecar) - 1))
    sidecar[at] ^= data.draw(st.integers(1, 255))
    _assert_ignored(tmp_path_factory.mktemp("f"), written, turtle_loads, bytes(sidecar))


@pytest.mark.parametrize(
    "edit",
    [
        # The same length: the same triples, then another subject.
        lambda text: text[:-1] + b" ",
        lambda text: text.replace(b"\n:s", b"\n:t", 1),
        # Other lengths: one more triple, and one statement that does not parse.
        lambda text: text + b"<http://example.org/s0> <http://example.org/p0> 1 .\n",
        lambda text: text + b"<http://example.org/s0> <http://example.org/p0> .\n",
    ],
    ids=["same_length_same_triples", "same_length_other_subject", "appended_triple", "broken"],
)
def test_a_turtle_edited_after_writing_is_parsed(tmp_path, written, turtle_loads, edit):
    before = Path(written[0][0]).read_bytes()
    turtle = edit(before)
    assert turtle != before
    _assert_ignored(tmp_path, written, turtle_loads, written[1][0], turtle)


def _field(data: bytes, index: int, value) -> bytes:
    fields = list(_HEADER.unpack_from(data))
    fields[index] = value
    return _HEADER.pack(*fields) + data[_HEADER.size :]


def _sections(data: bytes):
    terms, _, size = _HEADER.unpack_from(data)[4:7]
    blob = _START + 4 * (terms + 1)
    return blob, blob + size


def _damaged_sidecars(sidecar: bytes) -> dict:
    blob, triples = _sections(sidecar)
    version = _HEADER.unpack_from(sidecar)[1]
    terms = _HEADER.unpack_from(sidecar)[4]
    offset = struct.Struct("<I")
    cases = {
        "empty": b"",
        "magic": b"X" + sidecar[1:],
        "version": _field(sidecar, 1, version + 1),
        "turtle_length": _field(sidecar, 2, _HEADER.unpack_from(sidecar)[2] + 1),
        "turtle_hash": _field(sidecar, 3, bytes(8)),
        "trailing_byte": sidecar + b"\0",
    }
    # Consistent CRCs over inconsistent content: each must fail its own check.
    resigned = {
        "term_count": _field(sidecar, 4, terms - 1),
        "character_count": _field(sidecar, 5, _HEADER.unpack_from(sidecar)[5] + 1),
        "offsets_decrease": sidecar[: _START + 4] + offset.pack(0) + sidecar[_START + 8 :],
        "offset_past_blob": sidecar[: blob - 4] + offset.pack(2**31) + sidecar[blob:],
        "id_out_of_range": sidecar[:triples] + offset.pack(terms) + sidecar[triples + 4 :],
        "not_utf8": sidecar[:blob] + b"\xff" + sidecar[blob + 1 :],
        "blank_node": sidecar[:blob] + b"_" + sidecar[blob + 1 :],
    }
    cases.update((name, _resigned(data)) for name, data in resigned.items())
    assert len(set(cases.values())) == len(cases) and sidecar not in cases.values()
    return cases


@pytest.mark.parametrize(
    "damage",
    [
        "empty", "magic", "version", "turtle_length", "turtle_hash", "trailing_byte",
        "term_count", "character_count", "offsets_decrease", "offset_past_blob",
        "id_out_of_range", "not_utf8", "blank_node",
    ],
)
def test_an_inconsistent_sidecar_is_ignored(tmp_path, written, turtle_loads, damage):
    damaged = _damaged_sidecars(written[1][0])[damage]
    _assert_ignored(tmp_path, written, turtle_loads, damaged)


def test_a_sidecar_written_under_another_hash_key_is_ignored(
    tmp_path, written, turtle_loads, monkeypatch
):
    # Another Python version keys source_hash with its own magic number.
    import _imp

    other = tmp_path / "other"
    other.mkdir()
    with monkeypatch.context() as patched:
        patched.setattr(snapshot, "source_hash", lambda data: _imp.source_hash(1, data))
        paths = _write_two_files(other)
    assert Path(paths[0]).read_bytes() == Path(written[0][0]).read_bytes()
    sidecar = Path(paths[0] + snapshot.SUFFIX).read_bytes()
    assert sidecar != written[1][0]
    _assert_ignored(tmp_path, written, turtle_loads, sidecar)

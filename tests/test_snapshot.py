"""The snapshot sidecar that uplift and climate write beside each Turtle
file, against parsing that Turtle.

A store loaded through its sidecars must equal the store parsed from its
Turtle in everything a reader sees or whose order shows in an answer: the
texts, each graph's triples in order, the bucket of every id at every
position, and every query's result bytes. A sidecar that is damaged,
stale, foreign or of an older version must be ignored, so the load gives
the Turtle's result or its error.
"""

from __future__ import annotations

import gc
import os
import random
import struct
import string
import threading
from binascii import crc32
from itertools import accumulate, chain, repeat
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import naive
import querygen
from stores import quad_store
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
    texts = ds.texts()
    flat = [texts[i] for i in chain.from_iterable(ds.triples(None, None, None, graph))]
    cli._write_store(path, flat, graph, _prefixes(base))


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
    """Everything about a loaded store whose value or order a reader sees:
    its texts, and per graph its triples and, for every position and id,
    the bucket and its size."""
    ids = range(len(ds.texts()))
    graphs = {}
    for name in [None, *ds.graphs()]:
        store = ds.graph(name)
        if store is not None:
            buckets = [
                [(store.bucket(position, i), store.size(position, i)) for i in ids]
                for position in range(3)
            ]
            means = [store.mean(position) for position in range(3)]
            graphs[name] = (list(store.triples), buckets, means)
    return {"texts": list(ds.texts()), "graphs": graphs}


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
    quads = generated.match()
    for subject, predicate, other in extra:
        # Subjects are IRIs; anything may be an object, predicates too.
        subject = subject if isinstance(subject, Iri) else Iri(querygen.BASE + "lit")
        quads.append(Quad(subject, predicate, other, rnd.choice(_GRAPHS)))
    ds = quad_store(quads)
    paths = _write_stores(directory, ds, _GRAPHS[:files], write_base)
    # Each graph has a sidecar unless one of its texts holds the separator.
    texts = ds.texts()
    for path, graph in zip(paths, _GRAPHS):
        held = set(chain.from_iterable(ds.triples(None, None, None, graph)))
        assert os.path.exists(path + snapshot.SUFFIX) != any("\0" in texts[i] for i in held)
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


@pytest.mark.parametrize(
    "sidecars",
    [(True, True), (True, False), (False, True)],
    ids=["two_sidecars", "sidecar_then_parse", "parse_then_sidecar"],
)
def test_one_graph_loaded_from_two_files_answers_as_one_parse(tmp_path, turtle_loads, sidecars):
    rnd = random.Random(17)
    ds = querygen.random_dataset(rnd, max_quads=150)
    graph = querygen.NAMED_GRAPHS[0]
    texts = ds.texts()
    triples = ds.triples(None, None, None, graph)
    assert len(triples) >= 6
    # Two files of the graph that share a third of its triples, the
    # whole graph in a third file, and the default graph in a fourth.
    third = len(triples) // 3
    parts = {"first": triples[: 2 * third], "second": triples[third:], "whole": triples}
    paths = {}
    for name, part in parts.items():
        paths[name] = str(tmp_path / f"{name}.ttl")
        cli._write_store(paths[name], [texts[i] for i in chain.from_iterable(part)], graph, _prefixes(None))
    paths["default"] = str(tmp_path / "default.ttl")
    _write_store(paths["default"], ds, None, None)
    os.remove(paths["whole"] + snapshot.SUFFIX)
    for name, kept in zip(("first", "second"), sidecars):
        if not kept:
            os.remove(paths[name] + snapshot.SUFFIX)
    config = _config(None)
    two = [paths["first"], paths["second"], paths["default"]]
    loaded = load_store(two, config)
    assert turtle_loads == [graph for kept in sidecars if not kept]
    # Loaded as the parse of the same files is, bucket for bucket.
    assert _view(loaded) == _parsed_outcome(two, config, tmp_path)
    one = load_store([paths["whole"], paths["default"]], config)
    assert loaded.match() == one.match() == ds.match(graph=None) + ds.match(graph=graph)
    for _ in range(30):
        text = querygen.random_query_text(rnd, ds)
        query = parse_query(text)
        seq = evaluate(loaded, query)
        assert to_results_json(seq) == to_results_json(evaluate(one, query)), text
        assert naive.row_multiset(seq.rows) == naive.row_multiset(naive.naive_evaluate(loaded, query))


def _assert_buckets_as_scanned(ds: Dataset) -> None:
    """Each graph's bucket of every id at every position, and its size,
    as a linear scan of the graph's triples finds them, in their order."""
    ids = range(len(ds.texts()))
    for name in [None, *ds.graphs()]:
        store = ds.graph(name)
        if store is None:
            continue
        for position in range(3):
            for i in ids:
                scanned = [t for t in store.triples if t[position] == i]
                assert store.bucket(position, i) == scanned, (name, position, i)
                assert store.size(position, i) == len(scanned), (name, position, i)


@pytest.mark.parametrize(
    "load",
    ["two_sidecars", "two_sidecars_swapped", "parse_then_sidecar", "sidecar_then_parse",
     "one_graph_from_two_files"],
)
def test_every_bucket_of_a_loaded_store_equals_a_linear_scan(tmp_path, turtle_loads, load):
    ds = querygen.random_dataset(random.Random(5), max_quads=150)
    graph = querygen.NAMED_GRAPHS[0]
    if load == "one_graph_from_two_files":
        # Two files of one graph that share a third of its triples.
        texts = ds.texts()
        triples = ds.triples(None, None, None, graph)
        third = len(triples) // 3
        paths = []
        for name, part in (("first", triples[: 2 * third]), ("second", triples[third:])):
            paths.append(str(tmp_path / f"{name}.ttl"))
            flat = [texts[i] for i in chain.from_iterable(part)]
            cli._write_store(paths[-1], flat, graph, _prefixes(None))
        graphs = [graph]
    else:
        graphs = [graph, None]
        paths = _write_stores(tmp_path, ds, graphs, None)
        if load == "two_sidecars_swapped":
            paths.reverse()
            graphs.reverse()
        elif load != "two_sidecars":
            # The file loaded first or second is parsed.
            os.remove(paths[load == "sidecar_then_parse"] + snapshot.SUFFIX)
    loaded = load_store(paths, _config(None))
    assert turtle_loads == {"parse_then_sidecar": [graph], "sidecar_then_parse": [None]}.get(
        load, []
    )
    assert [loaded.match(graph=g) for g in graphs] == [ds.match(graph=g) for g in graphs]
    _assert_buckets_as_scanned(loaded)


def test_a_store_with_sidecars_is_loaded_without_parsing(tmp_path, turtle_loads):
    ds = querygen.random_dataset(random.Random(3))
    paths = _write_stores(tmp_path, ds, _GRAPHS, "http://example.org/")
    load_store(paths, _config(None))
    assert turtle_loads == []
    os.remove(paths[1] + snapshot.SUFFIX)
    load_store(paths, _config(None))
    assert turtle_loads == [querygen.NAMED_GRAPHS[1]]


def _assert_written_without_sidecar(tmp_path, turtle_loads, term) -> None:
    path = tmp_path / "store.ttl"
    quad = Quad(Iri("http://example.org/s"), Iri("http://example.org/p"), term)
    # A sidecar of an earlier graph does not outlive the Turtle it describes.
    _write_store(str(path), querygen.random_dataset(random.Random(1)), None, None)
    assert (tmp_path / "store.ttl.ekg").exists()
    _write_store(str(path), quad_store([quad]), None, None)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.ttl"]
    loaded = load_store([str(path)], _config(None))
    assert len(loaded) == 1
    assert turtle_loads == [None]
    if not isinstance(term, BlankNode):
        assert loaded.match() == [quad]


def test_a_graph_with_a_blank_node_gets_no_sidecar(tmp_path, turtle_loads):
    _assert_written_without_sidecar(tmp_path, turtle_loads, BlankNode("b"))


def test_a_graph_with_a_text_holding_nul_gets_no_sidecar(tmp_path, turtle_loads):
    # The sidecar joins its texts with "\0".
    _assert_written_without_sidecar(tmp_path, turtle_loads, Literal("a\0b"))


def test_a_loaded_store_is_frozen_out_of_the_collector(written):
    # The collector's later passes skip the store's triples and texts.
    before = gc.get_freeze_count()
    ds = load_store(written[0], _config(None))
    assert gc.get_freeze_count() - before >= len(ds)


# -- damaged, stale or foreign sidecars ------------------------------------------

_HEADER = struct.Struct("<8sIQ8sQQQQ3Q")
_START = _HEADER.size + 4
# The headers of version-1 and version-2 sidecars: the first held no
# groupings, and neither held a run table; their texts were sliced from
# the blob by character offsets. Version 3 shares version 4's header.
_HEADER_1 = struct.Struct("<8sIQ8sQQQQ")
_HEADER_2 = struct.Struct("<8sIQ8sQQQQ6Q")


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


def _sections(data: bytes) -> dict:
    """Where each section of a version-4 sidecar begins, by name, and where
    the sidecar ends."""
    _, size, count, *runs = _HEADER.unpack_from(data)[5:]
    lengths = [
        ("blob", size),
        ("pairs", 8 * count),
        ("subject_keys", 4 * runs[0]),
        ("subject_starts", 4 * (runs[0] + 1)),
    ]
    for name, n in zip(("predicate", "object"), runs[1:]):
        lengths += [(f"{name}_order", 4 * count), (f"{name}_keys", 4 * n)]
        lengths.append((f"{name}_starts", 4 * (n + 1)))
    at, sections = _START, {}
    for name, length in lengths:
        sections[name] = at
        at += length
    sections["end"] = at
    return sections


def _values(data: bytes, name: str) -> list:
    """A section's integers."""
    sections = _sections(data)
    names = list(sections)
    at, end = sections[name], sections[names[names.index(name) + 1]]
    return list(struct.unpack_from(f"<{(end - at) // 4}I", data, at))


def _set(data: bytes, name: str, index: int, value) -> bytes:
    """The sidecar with one integer of a section set."""
    at = _sections(data)[name] + 4 * index
    return data[:at] + struct.pack("<I", value) + data[at + 4 :]


def _swapped(data: bytes, name: str, first: int, second: int) -> bytes:
    values = _values(data, name)
    data = _set(data, name, first, values[second])
    return _set(data, name, second, values[first])


def _older(sidecar: bytes, version: int) -> bytes:
    """The sidecar as version 1, 2 or 3 wrote it: the same texts and each
    triple's three ids. Version 3 joined the texts as version 4 does and
    held the subjects' run table before their runs; versions 1 and 2
    sliced the texts by character offsets, version 2 held the groupings
    but no run table, and version 1 neither."""
    fields = _HEADER.unpack_from(sidecar)
    terms, _, size, count, *runs = fields[4:]
    sections = _sections(sidecar)
    keys, starts = _values(sidecar, "subject_keys"), _values(sidecar, "subject_starts")
    subjects = chain.from_iterable(map(repeat, keys, map(int.__sub__, starts[1:], starts)))
    pairs = iter(_values(sidecar, "pairs"))
    triples = struct.pack(f"<{3 * count}I", *chain.from_iterable(zip(subjects, pairs, pairs)))
    rest = sidecar[sections["subject_keys"] : sections["end"]]
    if version == 3:
        table = [-1] * terms
        for run, key in enumerate(keys):
            table[key] = run
        body = sidecar[sections["blob"] : sections["pairs"]] + triples
        body += struct.pack(f"<{terms}i", *table) + rest
        header = _HEADER.pack(fields[0], 3, *fields[2:])
        return header + struct.pack("<I", crc32(header, crc32(body))) + body
    texts = sidecar[_START : _START + size].decode("utf-8").split("\0")
    offsets = struct.pack(f"<{terms + 1}I", *accumulate(map(len, texts), initial=0))
    blob = "".join(texts).encode("utf-8")
    body = offsets + blob + triples
    counts = (len("".join(texts)), len(blob), count)
    if version == 1:
        header = _HEADER_1.pack(fields[0], 1, *fields[2:4], terms, *counts)
    else:
        body += rest
        shapes = (0, runs[0], count, runs[1], count, runs[2])
        header = _HEADER_2.pack(fields[0], 2, *fields[2:4], terms, *counts, *shapes)
    return header + struct.pack("<I", crc32(header, crc32(body))) + body


def _with_texts(sidecar: bytes, texts: list[str]) -> bytes:
    """The sidecar with other texts, its character and blob byte counts to match."""
    sections = _sections(sidecar)
    joined = "\0".join(texts)
    blob = joined.encode("utf-8")
    data = _field(_field(sidecar, 5, len(joined)), 6, len(blob))
    return data[: sections["blob"]] + blob + data[sections["pairs"] :]


def _damaged_sidecars(sidecar: bytes) -> dict:
    sections = _sections(sidecar)
    version = _HEADER.unpack_from(sidecar)[1]
    terms, chars, _, count = _HEADER.unpack_from(sidecar)[4:8]
    blob = sidecar[sections["blob"] : sections["pairs"]]
    texts = blob.decode("utf-8").split("\0")
    keys = _values(sidecar, "subject_keys")
    object_keys = _values(sidecar, "object_keys")
    # The cases below need three subject runs and two object runs.
    assert len(keys) >= 3 and len(object_keys) >= 2
    cases = {"empty": b"", "trailing_byte": sidecar + b"\0"}
    # Consistent CRCs over inconsistent content: each must fail its own check.
    resigned = {
        "magic": b"X" + sidecar[1:],
        "version": _field(sidecar, 1, version + 1),
        "turtle_length": _field(sidecar, 2, _HEADER.unpack_from(sidecar)[2] + 1),
        "turtle_hash": _field(sidecar, 3, bytes(8)),
        # One more term than the texts: no section's length depends on it.
        "term_count": _field(sidecar, 4, terms + 1),
        "character_count": _field(sidecar, 5, chars + 1),
        # The first text's separator moved before it: an empty text.
        "empty_text": sidecar[: sections["blob"]]
        + b"\0"
        + blob.replace(b"\0", b"", 1)
        + sidecar[sections["pairs"] :],
        "id_out_of_range": _set(sidecar, "pairs", 0, terms),
        "not_utf8": sidecar[: sections["blob"]] + b"\xff" + sidecar[sections["blob"] + 1 :],
        "blank_node": sidecar[: sections["blob"]] + b"_" + sidecar[sections["blob"] + 1 :],
        "text_repeated": _with_texts(sidecar, [texts[0], texts[0], *texts[2:]]),
        "triple_number_out_of_range": _set(sidecar, "predicate_order", 0, count),
        "run_id_out_of_range": _set(sidecar, "subject_keys", 0, terms),
        "object_run_id_out_of_range": _set(sidecar, "object_keys", len(object_keys) - 1, terms),
        # The first run's start moved up by one, and the next run's too, so
        # that the starts still rise.
        "runs_start_past_zero": _set(_set(sidecar, "subject_starts", 0, 1), "subject_starts", 1, 2),
        "runs_end_past_count": _set(sidecar, "object_starts", len(object_keys), count + 1),
        # Two interior run starts swapped, and one run id listed twice.
        "run_starts_not_rising": _swapped(sidecar, "subject_starts", 1, 2),
        "run_id_repeated": _set(sidecar, "subject_keys", 1, keys[0]),
        "object_run_ids_not_rising": _swapped(sidecar, "object_keys", 0, 1),
        "object_run_starts_not_rising": _swapped(sidecar, "object_starts", 1, 2),
    }
    cases.update((name, _resigned(data)) for name, data in resigned.items())
    assert len(set(cases.values())) == len(cases) and sidecar not in cases.values()
    return cases


@pytest.mark.parametrize(
    "damage",
    [
        "empty", "magic", "version", "turtle_length", "turtle_hash", "trailing_byte",
        "term_count", "character_count", "empty_text", "id_out_of_range", "not_utf8",
        "blank_node", "text_repeated", "triple_number_out_of_range", "run_id_out_of_range",
        "object_run_id_out_of_range", "runs_start_past_zero", "runs_end_past_count",
        "run_starts_not_rising", "run_id_repeated", "object_run_ids_not_rising",
        "object_run_starts_not_rising",
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


def _assert_older_version_ignored(tmp_path, written, turtle_loads, version):
    old = _older(written[1][0], version)
    (tmp_path / "old.ekg").write_bytes(old)
    with open(written[0][0], "rb") as turtle:
        assert snapshot.read(str(tmp_path / "old.ekg"), turtle) is None
    _assert_ignored(tmp_path, written, turtle_loads, old)
    # The answers through the parse are the bytes the sidecar gives.
    copies = [str(tmp_path / os.path.basename(path)) for path in written[0]]
    query = parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    through_parse = to_results_json(evaluate(load_store(copies, _config(None)), query))
    assert through_parse == to_results_json(evaluate(load_store(written[0], _config(None)), query))


def test_a_version_1_sidecar_is_ignored(tmp_path, written, turtle_loads):
    _assert_older_version_ignored(tmp_path, written, turtle_loads, 1)


def test_a_version_2_sidecar_is_ignored(tmp_path, written, turtle_loads):
    _assert_older_version_ignored(tmp_path, written, turtle_loads, 2)


def test_a_version_3_sidecar_is_ignored(tmp_path, written, turtle_loads):
    _assert_older_version_ignored(tmp_path, written, turtle_loads, 3)


def _sidecar(path: str):
    """The sidecar beside the Turtle file at path, if it checks out."""
    with open(path, "rb") as turtle:
        return snapshot.read(path + snapshot.SUFFIX, turtle)


def test_a_second_file_sharing_terms_loads_through_the_remap(tmp_path, turtle_loads):
    ds = querygen.random_dataset(random.Random(5), max_quads=60)
    paths = _write_stores(tmp_path, ds, (querygen.NAMED_GRAPHS[0], None), None)
    sidecars = [_sidecar(path) for path in paths]
    first = {text: i for i, text in enumerate(sidecars[0].texts)}
    # Some term of the second file has another id in the first.
    assert any(first.get(text, i) != i for i, text in enumerate(sidecars[1].texts))
    loaded = load_store(paths, _config(None))
    assert turtle_loads == []
    assert _view(loaded) == _parsed_outcome(paths, _config(None), tmp_path)


def test_a_sidecar_with_ids_out_of_range_opens_each_file_once(
    tmp_path, written, turtle_loads, monkeypatch
):
    damaged = _damaged_sidecars(written[1][0])["id_out_of_range"]
    copies = _with_sidecar(tmp_path, written, damaged)
    assert _sidecar(copies[0]) is not None
    expected = _parsed_outcome(copies, _config(None), tmp_path)
    opened = []
    real = cli._open

    def counting(path):
        opened.append(path)
        return real(path)

    monkeypatch.setattr(cli, "_open", counting)
    del turtle_loads[:]
    assert _outcome(copies, _config(None)) == expected
    # The file the sidecar failed on is parsed from the handle it was checked through.
    assert turtle_loads == [querygen.NAMED_GRAPHS[0]]
    assert opened == copies


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside_its_sidecar"])
def test_a_store_read_from_a_pipe_answers_as_the_file(tmp_path, written, turtle_loads, beside):
    """As ``energykg query <(cat store.ttl) ...`` reads it; a sidecar beside
    the pipe is checked against the bytes read from it."""
    paths, sidecars = written
    pipe = tmp_path / os.path.basename(paths[0])
    os.mkfifo(pipe)
    if beside:
        Path(str(pipe) + snapshot.SUFFIX).write_bytes(sidecars[0])
    feeder = threading.Thread(
        target=pipe.write_bytes, args=(Path(paths[0]).read_bytes(),), daemon=True
    )
    feeder.start()
    query = parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    through_pipe = to_results_json(evaluate(load_store([str(pipe), paths[1]], _config(None)), query))
    feeder.join(timeout=30)
    assert not feeder.is_alive()
    assert turtle_loads == ([] if beside else [querygen.NAMED_GRAPHS[0]])
    assert through_pipe == to_results_json(evaluate(load_store(paths, _config(None)), query))

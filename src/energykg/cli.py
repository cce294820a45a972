"""Command-line workflow: uplift, climate, query, serve, analyze.

Turtle files written by `uplift` start with a `# graph <iri>` comment so
later commands know which named graph to load them into; files without
the marker load into the default graph. Exit codes: 0 success, 1 input
or configuration error, 2 internal failure.

`uplift` and `climate` write a snapshot sidecar (``snapshot.py``,
``<file>.ekg``) beside each Turtle file; the Turtle and the sidecar are
written to temporary files that replace the earlier ones only once both
are complete. `load_store` opens every store file before it reads any,
and loads a file from its sidecar when the sidecar proves that it holds
what parsing the file gives, a proof that streams the file from its open
handle; otherwise it seeks that handle back and parses the Turtle. A
pipe's bytes are read once and serve both. `query` reads and parses its
query before the load.

`uplift` and `climate` build no store: their generators give each
triple as canonical term texts, whose distinct texts ``_mint`` numbers
by first appearance with one ``dict.fromkeys`` before mapping the flat
texts to ids, and the Turtle writer (``turtle_writer.py``) sorts these
id triples and drops the repeats.

Each subcommand imports the modules that only it uses when it runs, so
a process loads no query engine, analysis or HTTP server it never calls;
``snapshot`` is imported only to write or load a store, which in `uplift`
comes after the CSV has been read. The Turtle parser (``turtle.py``) is
imported only to parse a file whose sidecar does not check out, and the
Turtle writer only to write a store or with the parser, which re-exports
``serialize_turtle``; so `--help`, `uplift` and `climate` never load the
parser, and `query`, `serve` and `analyze` over checked sidecars load
neither.
No module builds dataclasses at run time: every run compiles the package
from source, and each ``@dataclass`` would ``exec``-compile its methods
again (``record.py`` holds the bases that replace them). ``traceback`` is
imported only on the exit-2 path.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import re
import sys
from contextlib import ExitStack, contextmanager, suppress
from itertools import chain, count
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence, TextIO

from .config import PipelineConfig, load_config
from .dataset import Dataset
from .errors import EnergyKgError
from .namespaces import (
    QUDT_NS,
    PROV_NS,
    RDF_NS,
    SEAS,
    SEAS_NS,
    SOSA_NS,
    XSD_NS,
    device_resource,
)
from .terms import GraphName, Iri, PrefixMap, TextTriple

_GRAPH_MARKER = re.compile(r"^#\s*graph\s+<([^<>]+)>\s*$")


def _open(path: str) -> BinaryIO:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise EnergyKgError(f"cannot read {path}: {exc}")


def _read_all(path: str, handle: BinaryIO) -> bytes:
    with handle:
        try:
            return handle.read()
        except OSError as exc:
            raise EnergyKgError(f"cannot read {path}: {exc}")


def _decode(path: str, data: bytes) -> str:
    """The file's bytes as text mode reads them: UTF-8, newlines translated."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The whole file is decoded at once, so the offset is the file's.
        raise EnergyKgError(f"cannot read {path}: not UTF-8 at byte {exc.start}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read(path: str) -> str:
    return _decode(path, _read_all(path, _open(path)))


@contextmanager
def _replacing(*paths: str) -> Iterator[list[TextIO]]:
    """Text handles on temporary files beside the paths, which replace
    the paths, in order, once the block completes. If the block raises,
    the temporary files are removed and every path is left as it was.
    Failing to create, write or replace a file is an EnergyKgError."""
    temporaries = [
        os.path.join(os.path.dirname(path) or ".", f".{os.path.basename(path)}.{os.getpid()}.tmp")
        for path in paths
    ]
    # The file an error is reported for; a failing block reports the first.
    failing = paths[0]
    try:
        with ExitStack() as stack:
            handles = []
            for failing, temporary in zip(paths, temporaries):
                os.makedirs(os.path.dirname(temporary), exist_ok=True)
                handles.append(stack.enter_context(open(temporary, "w", encoding="utf-8")))
            failing = paths[0]
            yield handles
        for failing, temporary in zip(paths, temporaries):
            os.replace(temporary, failing)
    except OSError as exc:
        raise EnergyKgError(f"cannot write {failing}: {exc}")
    finally:
        for temporary in temporaries:
            # Gone already once it has replaced its path.
            with suppress(OSError):
                os.remove(temporary)


def _write(path: str, text: str) -> None:
    with _replacing(path) as [handle]:
        handle.write(text)


def _mint(triples: Iterable[TextTriple]) -> tuple[list[str], list[int]]:
    """The text triples' distinct texts, numbered by first appearance as
    a ``dataset.TermIds`` numbers them, and each triple's subject,
    predicate and object id in turn. Each step loops in C."""
    with _collector_paused():
        flat = list(chain.from_iterable(triples))
        # Each distinct text once, in order of first appearance, numbered so.
        ids = dict.fromkeys(flat)
        texts = list(ids)
        ids.update(zip(texts, count()))
        # The text list is freed once its ids are listed.
        flat = list(map(ids.__getitem__, flat))
    return texts, flat


def _write_store(
    path: str, texts: list[str], triples: list[int], graph: GraphName, prefixes: PrefixMap
) -> str:
    """Write the triples (``turtle_writer.write_turtle``) as Turtle at
    path, marked as the graph's, with the snapshot sidecar beside it
    (``snapshot.py``). A graph the sidecar cannot hold leaves no sidecar.
    The list of triples is cleared once the Turtle is written, so it is
    not held while the sidecar is."""
    from . import snapshot
    from .turtle_writer import write_turtle

    sidecar_path = path + snapshot.SUFFIX
    with _replacing(path, sidecar_path) as [turtle, sidecar]:
        if graph is not None:
            turtle.write(f"# graph <{graph.value}>\n")
        document = write_turtle(turtle, texts, triples, prefixes)
        triples.clear()
        written = snapshot.write(sidecar.buffer, turtle, *document)
    if not written:
        with suppress(OSError):
            os.remove(sidecar_path)
    return path


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a block builds a store
    or a term dictionary.

    Their id tuples and texts form no cycles, so the collector's passes
    over a growing heap of them find nothing to free. When the block
    completes, every object then alive is frozen (`gc.freeze`), so later
    passes skip them too. The previous enabled state comes back
    when the block exits, also when it raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if enabled:
            gc.enable()


def _graph_of(text: str) -> GraphName:
    """The graph that a `# graph <iri>` marker on the text's first line names."""
    # The marker is matched within the first line, without copying it.
    end = text.find("\n")
    marker = _GRAPH_MARKER.match(text, 0, len(text) if end < 0 else end)
    return Iri(marker.group(1)) if marker else None


def load_store(paths: Sequence[str], config: PipelineConfig) -> Dataset:
    """Load Turtle files, honouring the `# graph <iri>` first-line marker.

    Every path is opened before any file is read. A file whose snapshot
    sidecar proves that it holds what parsing the file gives is loaded
    from the sidecar; any other is parsed."""
    with ExitStack() as stack:
        handles = [stack.enter_context(_open(path)) for path in paths]
        ds = Dataset()
        with _collector_paused():
            for path, handle in zip(paths, handles):
                _load_file(ds, path, handle, config.base_iri)
            return ds.freeze()


def _load_file(ds: Dataset, path: str, handle: BinaryIO, base: Optional[Iri]) -> None:
    from . import snapshot

    if not handle.seekable():
        # A pipe can be read only once: its bytes serve the check and the parse.
        handle = io.BytesIO(_read_all(path, handle))
    sidecar = snapshot.read(path + snapshot.SUFFIX, handle)
    if sidecar is not None:
        handle.seek(0)
        # The file is one the writer wrote, whose first line ends in "\n".
        if sidecar.load(ds, _graph_of(handle.readline().decode("utf-8", "replace"))):
            return
        # The sidecar's ids are out of range: parse the file after all.
    handle.seek(0)
    from .turtle import load_turtle

    data = _read_all(path, handle)
    text = _decode(path, data)
    del data
    load_turtle(ds, text, graph=_graph_of(text), base=base)


def _uplift_prefixes(config: PipelineConfig) -> PrefixMap:
    prefixes = PrefixMap(base=config.base_iri)
    prefixes.bind("", Iri(config.base + "resource/cossmic/"))
    prefixes.bind("rdf", Iri(RDF_NS))
    prefixes.bind("seas", Iri(SEAS_NS))
    prefixes.bind("prov", Iri(PROV_NS))
    prefixes.bind("qudt", Iri(QUDT_NS))
    prefixes.bind("xsd", Iri(XSD_NS))
    return prefixes


def _climate_prefixes(config: PipelineConfig) -> PrefixMap:
    prefixes = PrefixMap(base=config.base_iri)
    prefixes.bind("rdf", Iri(RDF_NS))
    prefixes.bind("sosa", Iri(SOSA_NS))
    prefixes.bind("qudt", Iri(QUDT_NS))
    prefixes.bind("xsd", Iri(XSD_NS))
    return prefixes


def cmd_uplift(energy_csv: str, config: PipelineConfig) -> str:
    """Energy CSV to one Turtle file holding the cossmic graph."""
    from .headings import parse_heading
    from .uplift import (
        CounterMode, evaluation_triples, network_triple, read_energy_csv, station_link, to_daily,
        topology_triples,
    )

    mode = CounterMode(config.counter_mode)
    table = read_energy_csv(_read(energy_csv), mode)
    if config.resolution == "daily":
        table = to_daily(table)
    headings = [parse_heading(name) for name in table.columns]
    base = config.base_iri
    if headings:
        network = device_resource(base, headings[0].network_name)
        topology = topology_triples(headings, base)
    else:
        network = config.network_iri
        topology = [network_triple(network)]
    texts, triples = _mint(
        chain(
            topology,
            evaluation_triples(table, base),
            [station_link(network, config.station_iri, base)],
        )
    )
    # The table's values are no longer needed while the file is written.
    del table
    path = os.path.join(config.out, "cossmic.ttl")
    return _write_store(path, texts, triples, config.graph_iri, _uplift_prefixes(config))


def cmd_climate(observations_path: str, config: PipelineConfig) -> str:
    """Observation CSV or JSON to one default-graph Turtle file."""
    from .climate import observation_triples, parse_noaa_csv, parse_noaa_json

    text = _read(observations_path)
    if observations_path.endswith(".json"):
        observations = parse_noaa_json(text, config.scale_decimal)
    else:
        observations = parse_noaa_csv(text, config.scale_decimal)
    texts, triples = _mint(observation_triples(observations, config.base_iri))
    path = os.path.join(config.out, "climate.ttl")
    return _write_store(path, texts, triples, None, _climate_prefixes(config))


def cmd_query(store_paths: Sequence[str], query: str, config: PipelineConfig) -> str:
    """Run the query, a file's or the argument's own text, over the store.
    The query is read and parsed before the store is loaded."""
    from .sparql import evaluate, parse_query, to_results_json, to_results_tsv

    if os.path.exists(query):
        parsed = parse_query(_read(query))
    else:
        try:
            parsed = parse_query(query)
        except EnergyKgError as exc:
            raise EnergyKgError(f"no file named {query!r}, and as query text: {exc}") from None
    ds = load_store(store_paths, config)
    seq = evaluate(ds, parsed)
    if config.format == "json":
        return to_results_json(seq)
    return to_results_tsv(seq)


def cmd_serve(store_paths: Sequence[str], config: PipelineConfig) -> None:
    from .endpoint import EndpointConfig, serve

    ds = load_store(store_paths, config)
    host, port = config.bind_address()
    endpoint_config = EndpointConfig(host=host, port=port)
    try:
        serve(endpoint_config, ds)
    except OSError as exc:
        raise EnergyKgError(f"cannot bind {config.bind}: {exc}")


def cmd_analyze(store_paths: Sequence[str], config: PipelineConfig) -> list[str]:
    """Write report.tsv, report.json and per-category scatter CSVs."""
    from .analysis import (
        align, categorize, correlation_table, report_json, report_tsv, scatter_export,
    )

    ds = load_store(store_paths, config)
    graph = config.graph_iri
    evaluation = ds.id_of(SEAS.evaluation)
    subjects = set()
    if evaluation is not None:
        subjects = {s for s, _, _ in ds.triples(None, evaluation, None, graph)}
    devices = sorted(
        (term for term in map(ds.term, subjects) if isinstance(term, Iri)),
        key=lambda iri: iri.value,
    )
    if not devices:
        raise EnergyKgError("store contains no device evaluations")
    aligned = align(
        ds, devices, config.datatype, config.station_iri, config.base_iri, graph,
        auxiliary=("PRCP",),
    )
    report = correlation_table(aligned, config.datatype, config.threshold, config.min_samples)
    written = []
    tsv_path = os.path.join(config.out, "report.tsv")
    _write(tsv_path, report_tsv(report))
    written.append(tsv_path)
    json_path = os.path.join(config.out, "report.json")
    _write(json_path, report_json(report))
    written.append(json_path)

    scatter_by_kind: dict[str, list] = {}
    for series in aligned:
        if series.pairs:
            scatter_by_kind.setdefault(categorize(series.device).value, []).append(series)
    for kind, kind_series in sorted(scatter_by_kind.items()):
        path = os.path.join(config.out, f"scatter_{kind}.csv")
        _write(path, scatter_export(kind_series))
        written.append(path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energykg",
        description="Uplift energy and climate CSVs to RDF, query the result, correlate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--base", help="base IRI for minted resources")
        p.add_argument("--out", help="output directory")

    p_uplift = sub.add_parser("uplift", help="energy CSV to Turtle")
    p_uplift.add_argument("energy_csv")
    common(p_uplift)
    p_uplift.add_argument("--station", help="station id for the weather link")
    p_uplift.add_argument("--counter-mode", dest="counter_mode", choices=["cumulative", "interval"])
    p_uplift.add_argument("--resolution", choices=["daily", "raw"])

    p_climate = sub.add_parser("climate", help="observation CSV/JSON to Turtle")
    p_climate.add_argument("observations")
    common(p_climate)
    p_climate.add_argument("--scale", help="multiply observation values by this factor")

    p_query = sub.add_parser("query", help="run a query over Turtle store files")
    p_query.add_argument("stores", nargs="+", help="Turtle files, then the query (file or text)")
    common(p_query)
    p_query.add_argument("--format", choices=["tsv", "json"])

    p_serve = sub.add_parser("serve", help="serve store files over HTTP")
    p_serve.add_argument("stores", nargs="+")
    common(p_serve)
    p_serve.add_argument("--bind", help="host:port to listen on")

    p_analyze = sub.add_parser("analyze", help="correlation report and scatter exports")
    p_analyze.add_argument("stores", nargs="+")
    common(p_analyze)
    p_analyze.add_argument("--station")
    p_analyze.add_argument("--datatype", help="climate datatype code to correlate against")
    p_analyze.add_argument("--threshold", type=float)
    p_analyze.add_argument("--min-samples", dest="min_samples", type=int)

    return parser


_CONFIG_KEYS = (
    "base", "station", "counter_mode", "resolution", "out", "scale",
    "format", "bind", "datatype", "threshold", "min_samples",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {
            key: getattr(args, key) for key in _CONFIG_KEYS if getattr(args, key, None) is not None
        }
        config = load_config(args.config, overrides)
        if args.command == "uplift":
            print(cmd_uplift(args.energy_csv, config))
        elif args.command == "climate":
            print(cmd_climate(args.observations, config))
        elif args.command == "query":
            if len(args.stores) < 2:
                raise EnergyKgError("query needs store files followed by a query")
            sys.stdout.write(cmd_query(args.stores[:-1], args.stores[-1], config))
            sys.stdout.flush()
        elif args.command == "serve":
            cmd_serve(args.stores, config)
        elif args.command == "analyze":
            for path in cmd_analyze(args.stores, config):
                print(path)
        return 0
    except EnergyKgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

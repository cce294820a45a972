"""Command-line workflow: uplift, climate, query, serve, analyze.

Turtle files written by `uplift` start with a `# graph <iri>` comment so
later commands know which named graph to load them into; files without
the marker load into the default graph. Exit codes: 0 success, 1 input
or configuration error, 2 internal failure.

Each subcommand imports the modules that only it uses when it runs, so
a process loads no query engine, analysis or HTTP server it never calls.
No module builds dataclasses at run time: every run compiles the package
from source, and each ``@dataclass`` would ``exec``-compile its methods
again (``record.py`` holds the bases that replace them). ``traceback`` is
imported only on the exit-2 path.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from contextlib import contextmanager, suppress
from typing import Iterator, Optional, Sequence, TextIO

from .config import PipelineConfig, load_config
from .dataset import Dataset
from .errors import EnergyKgError
from .namespaces import (
    QUDT_NS,
    PROV_NS,
    RDF_NS,
    RDF_TYPE,
    SEAS,
    SEAS_NS,
    SOSA_NS,
    XSD_NS,
    device_resource,
)
from .terms import Iri, PrefixMap, Quad
from .turtle import load_turtle, write_turtle

_GRAPH_MARKER = re.compile(r"^#\s*graph\s+<([^<>]+)>\s*$")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise EnergyKgError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        # The whole file is decoded at once, so the offset is the file's.
        raise EnergyKgError(f"cannot read {path}: not UTF-8 at byte {exc.start}")


@contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A text handle on a temporary file beside path, which replaces path
    once the block completes. If the block raises, the temporary file is
    removed and path is left as it was. Failing to create, write or
    replace the file is an EnergyKgError."""
    directory = os.path.dirname(path) or "."
    temporary = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        os.makedirs(directory, exist_ok=True)
        with open(temporary, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except OSError as exc:
        raise EnergyKgError(f"cannot write {path}: {exc}")
    finally:
        # Gone already once it has replaced path.
        with suppress(OSError):
            os.remove(temporary)


def _write(path: str, text: str) -> None:
    with _replacing(path) as handle:
        handle.write(text)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a block builds a store.

    A store's id tuples and terms form no cycles, so the collector's
    passes over its growing heap find nothing to free. When the block
    completes, every object then alive is frozen (`gc.freeze`), so later
    passes skip the store too. The previous enabled state comes back
    when the block exits, also when it raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if enabled:
            gc.enable()


def load_store(paths: Sequence[str], config: PipelineConfig) -> Dataset:
    """Load Turtle files, honouring the `# graph <iri>` first-line marker."""
    ds = Dataset()
    with _collector_paused():
        for path in paths:
            text = _read(path)
            # The marker is matched within the first line, without copying it.
            end = text.find("\n")
            marker = _GRAPH_MARKER.match(text, 0, len(text) if end < 0 else end)
            graph = Iri(marker.group(1)) if marker else None
            load_turtle(ds, text, graph=graph, base=config.base_iri)
        return ds.freeze()


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
    from .climate import link_network_to_station
    from .headings import parse_heading
    from .uplift import CounterMode, evaluation_triples, read_energy_csv, to_daily, topology_triples

    mode = CounterMode(config.counter_mode)
    table = read_energy_csv(_read(energy_csv), mode)
    if config.resolution == "daily":
        table = to_daily(table)
    headings = [parse_heading(name) for name in table.columns]
    graph = config.graph_iri
    base = config.base_iri

    ds = Dataset()
    with _collector_paused():
        if headings:
            ds.add_triples(topology_triples(headings, base), graph)
            network = device_resource(base, headings[0].network_name)
        else:
            network = config.network_iri
            ds.add(Quad(network, RDF_TYPE, SEAS.ElectricPowerDistributionNetwork, graph))
        ds.add_triples(evaluation_triples(table.records(), base), graph)
        ds.add(link_network_to_station(network, config.station_iri, base, graph))

    out_path = os.path.join(config.out, "cossmic.ttl")
    with _replacing(out_path) as handle:
        handle.write(f"# graph <{graph.value}>\n")
        write_turtle(handle, ds, graph, _uplift_prefixes(config))
    return out_path


def cmd_climate(observations_path: str, config: PipelineConfig) -> str:
    """Observation CSV or JSON to one default-graph Turtle file."""
    from .climate import observation_triples, parse_noaa_csv, parse_noaa_json

    text = _read(observations_path)
    if observations_path.endswith(".json"):
        observations = parse_noaa_json(text, config.scale_decimal)
    else:
        observations = parse_noaa_csv(text, config.scale_decimal)
    ds = Dataset()
    with _collector_paused():
        ds.add_triples(observation_triples(observations, config.base_iri))
    out_path = os.path.join(config.out, "climate.ttl")
    with _replacing(out_path) as handle:
        write_turtle(handle, ds, None, _climate_prefixes(config))
    return out_path


def _query_text(query: str) -> str:
    if os.path.exists(query):
        return _read(query)
    return query


def cmd_query(store_paths: Sequence[str], query: str, config: PipelineConfig) -> str:
    from .sparql import evaluate, parse_query, to_results_json, to_results_tsv

    ds = load_store(store_paths, config)
    seq = evaluate(ds, parse_query(_query_text(query)))
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

    scatter_by_kind: dict[str, list[str]] = {}
    for series in aligned:
        if not series.pairs:
            continue
        kind = categorize(series.device).kind.value
        text = scatter_export(series)
        header, _, body = text.partition("\n")
        bucket = scatter_by_kind.setdefault(kind, [header + "\n"])
        bucket.append(body)
    for kind, chunks in sorted(scatter_by_kind.items()):
        path = os.path.join(config.out, f"scatter_{kind}.csv")
        _write(path, "".join(chunks))
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

"""Command-line workflow: uplift, climate, query, serve, analyze.

Turtle files written by `uplift` start with a `# graph <iri>` comment so
later commands know which named graph to load them into; files without
the marker load into the default graph. Exit codes: 0 success, 1 input
or configuration error, 2 internal failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import traceback
from typing import Optional, Sequence

from .analysis import (
    align,
    categorize,
    correlation_table,
    report_json,
    report_tsv,
    scatter_export,
)
from .climate import link_network_to_station, observation_quads, parse_noaa_csv, parse_noaa_json
from .config import PipelineConfig, load_config
from .dataset import ANY, Dataset
from .endpoint import EndpointConfig, serve
from .errors import EnergyKgError
from .headings import parse_heading
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
from .sparql import evaluate, parse_query, to_results_json, to_results_tsv
from .terms import Iri, PrefixMap, Quad
from .turtle import load_turtle, serialize_turtle
from .uplift import CounterMode, evaluation_quads, read_energy_csv, to_daily, topology_quads

_GRAPH_MARKER = re.compile(r"^#\s*graph\s+<([^<>]+)>\s*$")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise EnergyKgError(f"cannot read {path}: {exc}")


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_store(paths: Sequence[str], config: PipelineConfig) -> Dataset:
    """Load Turtle files, honouring the `# graph <iri>` first-line marker."""
    ds = Dataset()
    for path in paths:
        text = _read(path)
        first_line = text.split("\n", 1)[0]
        marker = _GRAPH_MARKER.match(first_line)
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
    mode = CounterMode(config.counter_mode)
    table = read_energy_csv(_read(energy_csv), mode)
    if config.resolution == "daily":
        table = to_daily(table)
    headings = [parse_heading(name) for name in table.columns]
    graph = config.graph_iri
    base = config.base_iri

    quads: set[Quad] = set()
    if headings:
        quads |= topology_quads(headings, base, graph)
        network = device_resource(base, headings[0].network_name)
    else:
        network = config.network_iri
        quads.add(Quad(network, RDF_TYPE, SEAS.ElectricPowerDistributionNetwork, graph))
    quads |= evaluation_quads(table.records(), base, graph)
    quads.add(link_network_to_station(network, config.station_iri, base, graph))

    ds = Dataset(quads)
    turtle = serialize_turtle(ds, graph, _uplift_prefixes(config))
    out_path = os.path.join(config.out, "cossmic.ttl")
    _write(out_path, f"# graph <{graph.value}>\n" + turtle)
    return out_path


def cmd_climate(observations_path: str, config: PipelineConfig) -> str:
    """Observation CSV or JSON to one default-graph Turtle file."""
    text = _read(observations_path)
    if observations_path.endswith(".json"):
        observations = parse_noaa_json(text, config.scale_decimal)
    else:
        observations = parse_noaa_csv(text, config.scale_decimal)
    ds = Dataset(observation_quads(observations, config.base_iri))
    turtle = serialize_turtle(ds, None, _climate_prefixes(config))
    out_path = os.path.join(config.out, "climate.ttl")
    _write(out_path, turtle)
    return out_path


def _query_text(query: str) -> str:
    if os.path.exists(query):
        return _read(query)
    return query


def cmd_query(store_paths: Sequence[str], query: str, config: PipelineConfig) -> str:
    ds = load_store(store_paths, config)
    seq = evaluate(ds, parse_query(_query_text(query)))
    if config.format == "json":
        return to_results_json(seq)
    return to_results_tsv(seq)


def cmd_serve(store_paths: Sequence[str], config: PipelineConfig) -> None:
    ds = load_store(store_paths, config)
    host, port = config.bind_address()
    endpoint_config = EndpointConfig(host=host, port=port)
    try:
        serve(endpoint_config, ds)
    except OSError as exc:
        raise EnergyKgError(f"cannot bind {config.bind}: {exc}")


def cmd_analyze(store_paths: Sequence[str], config: PipelineConfig) -> list[str]:
    """Write report.tsv, report.json and per-category scatter CSVs."""
    ds = load_store(store_paths, config)
    graph = config.graph_iri
    devices = sorted(
        {q.subject for q in ds.match(ANY, SEAS.evaluation, ANY, graph) if isinstance(q.subject, Iri)},
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
        traceback.print_exc()
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

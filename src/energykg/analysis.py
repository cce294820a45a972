"""Device-level correlation of daily energy against climate observations.

The alignment runs the day-matching join query against the store, so the
analysis exercises exactly the data an external endpoint client would
see. It is one join query per run: the query binds ``?device`` and the
rows are grouped per device, so the report and the scatter exports are
built from the same aligned series. The query's answer is read as it
comes from ``evaluate``, its rows tuples of term ids: the days and
numbers they hold repeat once per device, and each distinct id is
decoded once, from its canonical text. Correlations are plain Pearson
coefficients over the inner-joined daily pairs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import date
from decimal import Decimal
from enum import Enum
from functools import cache
from typing import Callable, Optional, Sequence

from .dataset import Dataset
from .errors import EnergyKgError
from .headings import DeviceHeading, parse_heading
from .namespaces import DEFAULT_BASE, ca_property, cossmic_graph
from .record import Frozen, Record, set_field
from .sparql import evaluate, parse_query
from .terms import Iri, Literal, decode_term, parse_datetime, parse_numeric


class AnalysisError(EnergyKgError):
    """Alignment or correlation input problem."""


class UndefinedCorrelationError(AnalysisError):
    """Zero variance on one side; the coefficient does not exist."""


class AlignedSeries(Frozen):
    _fields = ("device", "climate_code", "pairs", "auxiliary")

    def __init__(
        self,
        device: DeviceHeading,
        climate_code: str,
        pairs: tuple[tuple[date, Decimal, Decimal], ...],
        auxiliary: Optional[dict[str, tuple[Optional[Decimal], ...]]] = None,
    ) -> None:
        set_field(self, "device", device)
        set_field(self, "climate_code", climate_code)
        set_field(self, "pairs", pairs)
        set_field(self, "auxiliary", {} if auxiliary is None else auxiliary)

    def energy(self) -> list[float]:
        return [float(v) for _, v, _ in self.pairs]

    def climate(self) -> list[float]:
        return [float(v) for _, _, v in self.pairs]


class CategoryKind(str, Enum):
    PV = "pv"
    REFRIGERATOR_FREEZER = "refrigerator_freezer"
    GRID_IMPORT = "grid_import"
    GRID_EXPORT = "grid_export"
    HEAT_PUMP = "heat_pump"
    CIRCULATION_PUMP = "circulation_pump"
    OTHER = "other"


def categorize(heading: DeviceHeading) -> CategoryKind:
    segments = heading.device_segments
    if segments[0] == "pv":
        return CategoryKind.PV
    if segments[0] in ("refrigerator", "freezer"):
        return CategoryKind.REFRIGERATOR_FREEZER
    if segments == ("grid", "import"):
        return CategoryKind.GRID_IMPORT
    if segments == ("grid", "export"):
        return CategoryKind.GRID_EXPORT
    if segments == ("heat", "pump"):
        return CategoryKind.HEAT_PUMP
    if segments == ("circulation", "pump"):
        return CategoryKind.CIRCULATION_PUMP
    return CategoryKind.OTHER


# -- Pearson correlation -----------------------------------------------------


def pcc(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped into [-1, 1]."""
    if len(x) != len(y):
        raise AnalysisError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise AnalysisError(f"need at least 2 samples, got {n}")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [value - mean_x for value in x]
    dy = [value - mean_y for value in y]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("undefined correlation: zero variance input")
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


# -- alignment via the store -------------------------------------------------

_ALIGN_QUERY = """\
BASE <{base}>
PREFIX seas: <https://w3id.org/seas/>
PREFIX qudt: <http://qudt.org/1.1/schema/qudt#>
PREFIX prov: <http://www.w3.org/ns/prov#>
PREFIX sosa: <http://www.w3.org/ns/sosa/>

SELECT ?device ?edate ?val ?cval
FROM <urn:x-arq:DefaultGraph>
FROM NAMED <{graph}>
WHERE
{{
  ?obsv a <ca/class/Observation> ;
        <ca/property/sourceStation> <{station}> ;
        sosa:resultTime ?date ;
        sosa:hasResult/qudt:numericValue ?cval ;
        sosa:hasResult/<ca/property/withDataType> <resource/datatype/{code}> .
  GRAPH <{graph}>
  {{
    <{network}> <ca/property/retrieveWeatherFrom> <{station}> .
    ?device seas:evaluation ?eval .
    ?eval prov:generatedAtTime ?edate ;
          seas:evaluatedValue/qudt:numericalValue ?val .
  }}
  FILTER (year(?date)=year(?edate) && month(?date)=month(?edate) && day(?date)=day(?edate))
}}
"""

_CLIMATE_ONLY_QUERY = """\
BASE <{base}>
PREFIX qudt: <http://qudt.org/1.1/schema/qudt#>
PREFIX sosa: <http://www.w3.org/ns/sosa/>

SELECT ?date ?cval
FROM <urn:x-arq:DefaultGraph>
WHERE
{{
  ?obsv a <ca/class/Observation> ;
        <ca/property/sourceStation> <{station}> ;
        sosa:resultTime ?date ;
        sosa:hasResult/qudt:numericValue ?cval ;
        sosa:hasResult/<ca/property/withDataType> <resource/datatype/{code}> .
}}
"""


def _linked_network(ds: Dataset, station: Iri, base: Iri, graph: Iri) -> Iri:
    """The subject that links to the station, read from the store's ids:
    of several, the one whose text sorts first."""
    link, target = ds.id_of(ca_property(base, "retrieveWeatherFrom")), ds.id_of(station)
    links = [] if link is None or target is None else ds.triples(None, link, target, graph)
    if not links:
        raise AnalysisError(f"network not linked to station {station.value}")
    subject = ds.term(min((s for s, _, _ in links), key=ds.texts().__getitem__))
    if not isinstance(subject, Iri):
        raise AnalysisError("network link subject is not an IRI")
    return subject


def _heading_from_iri(device: Iri, base: Iri) -> DeviceHeading:
    prefix = base.value + "resource/cossmic/"
    if not device.value.startswith(prefix):
        raise AnalysisError(f"device IRI {device.value} is not under {prefix}")
    return parse_heading(device.value[len(prefix):])


def climate_series(
    ds: Dataset, station: Iri, climate_code: str, base: Iri = DEFAULT_BASE
) -> dict[date, Decimal]:
    """Day-to-value map of one datatype's observations for a station."""
    query = parse_query(
        _CLIMATE_ONLY_QUERY.format(base=base.value, station=station.value, code=climate_code)
    )
    day_of, number_of = _decoders(ds)
    return {day_of(day): number_of(value) for day, value in evaluate(ds, query).ids}


def align(
    ds: Dataset,
    devices: Sequence[Iri],
    climate_code: str,
    station: Iri,
    base: Iri = DEFAULT_BASE,
    graph: Optional[Iri] = None,
    auxiliary: Sequence[str] = (),
) -> list[AlignedSeries]:
    """Inner-join each device's daily readings with same-day observations.

    One evaluation of the join query serves every device; the result has
    one series per requested device, in the order given. A device that
    the store lacks has no readings.
    """
    g = cossmic_graph(base) if graph is None else graph
    network = _linked_network(ds, station, base, g)
    query = parse_query(
        _ALIGN_QUERY.format(
            base=base.value,
            graph=g.value,
            station=station.value,
            code=climate_code,
            network=network.value,
        )
    )
    day_of, number_of = _decoders(ds)
    joined: dict[Iri, dict[date, tuple[Decimal, Decimal]]] = {device: {} for device in devices}
    # A device the store lacks gets the key None, which no row holds.
    by_id = {ds.id_of(device): days for device, days in joined.items()}
    for device, edate, value, climate in evaluate(ds, query).ids:
        days = by_id.get(device)
        if days is None:
            continue
        day = day_of(edate)
        if day in days:
            raise AnalysisError(
                f"duplicate day {day.isoformat()} for {ds.term(device).value}; "
                "store is not at daily resolution"
            )
        days[day] = (number_of(value), number_of(climate))

    extra = {code: climate_series(ds, station, code, base) for code in auxiliary}
    out = []
    for device in devices:
        days = joined[device]
        pairs = tuple((day, *days[day]) for day in sorted(days))
        aux = {code: tuple(values.get(day) for day, _, _ in pairs) for code, values in extra.items()}
        out.append(AlignedSeries(_heading_from_iri(device, base), climate_code, pairs, aux))
    return out


def _decoders(ds: Dataset) -> tuple[Callable[[int], date], Callable[[int], Decimal]]:
    """A literal id's day and its number, each decoded once per id from the
    id's canonical text. The join's dates and climate values repeat once
    per device."""
    texts = ds.texts()

    def literal(term_id: int) -> Literal:
        term = decode_term(texts[term_id])
        if not isinstance(term, Literal):
            raise AnalysisError(f"expected a literal, got {term!r}")
        return term

    return (
        cache(lambda term_id: parse_datetime(literal(term_id).lexical).date()),
        cache(lambda term_id: parse_numeric(literal(term_id))),
    )


# -- reports -----------------------------------------------------------------


class CorrelationEntry(Frozen):
    _fields = ("device", "climate_code", "pcc", "n")

    def __init__(self, device: str, climate_code: str, pcc: float, n: int) -> None:
        set_field(self, "device", device)
        set_field(self, "climate_code", climate_code)
        set_field(self, "pcc", pcc)
        set_field(self, "n", n)


class CorrelationReport(Record):
    _fields = ("climate_code", "threshold", "entries", "warnings", "category_stats")

    def __init__(
        self,
        climate_code: str,
        threshold: float,
        entries: list[CorrelationEntry],
        warnings: list[str],
        category_stats: dict[str, dict[str, float]],
    ) -> None:
        self.climate_code = climate_code
        self.threshold = threshold
        self.entries = entries
        self.warnings = warnings
        self.category_stats = category_stats


def _quartiles(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    n = len(ordered)

    def at(q: float) -> float:
        if n == 1:
            return ordered[0]
        position = q * (n - 1)
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return ordered[low]
        weight = position - low
        return ordered[low] * (1 - weight) + ordered[high] * weight

    return {
        "count": float(n),
        "min": ordered[0],
        "q1": at(0.25),
        "median": at(0.5),
        "q3": at(0.75),
        "max": ordered[-1],
    }


def correlation_table(
    aligned: Sequence[AlignedSeries],
    climate_code: str,
    threshold: float,
    min_samples: int = 2,
) -> CorrelationReport:
    """Per-device coefficients, filtered to |pcc| >= threshold.

    Devices with undefined correlations or too few joined days are
    excluded and listed in the warnings section.
    """
    if not (0.0 <= threshold <= 1.0):
        raise AnalysisError(f"threshold must be within [0, 1], got {threshold}")
    entries: list[CorrelationEntry] = []
    warnings: list[str] = []
    by_category: dict[str, list[float]] = {}
    for series in aligned:
        raw = series.device.raw
        if len(series.pairs) < min_samples:
            warnings.append(f"{raw}: only {len(series.pairs)} joined days, need {min_samples}")
            continue
        try:
            value = pcc(series.energy(), series.climate())
        except UndefinedCorrelationError as exc:
            warnings.append(f"{raw}: {exc}")
            continue
        kind = categorize(series.device).value
        by_category.setdefault(kind, []).append(value)
        if abs(value) >= threshold:
            entries.append(CorrelationEntry(raw, climate_code, value, len(series.pairs)))
    entries.sort(key=lambda entry: entry.device)
    stats = {kind: _quartiles(values) for kind, values in sorted(by_category.items())}
    return CorrelationReport(climate_code, threshold, entries, warnings, stats)


def report_tsv(report: CorrelationReport) -> str:
    lines = ["device\tdatatype\tpcc\tn"]
    for entry in report.entries:
        lines.append(f"{entry.device}\t{entry.climate_code}\t{entry.pcc:.2f}\t{entry.n}")
    return "\n".join(lines) + "\n"


def report_json(report: CorrelationReport) -> str:
    payload = {
        "climate_code": report.climate_code,
        "threshold": report.threshold,
        "entries": [
            {
                "device": entry.device,
                "datatype": entry.climate_code,
                "pcc": entry.pcc,
                "pcc_display": f"{entry.pcc:.2f}",
                "n": entry.n,
            }
            for entry in report.entries
        ],
        "warnings": report.warnings,
        "categories": report.category_stats,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def scatter_export(aligned: Sequence[AlignedSeries]) -> str:
    """CSV of day, energy and climate value plus optional precipitation:
    one header, then the rows of each series in the order given. The
    header names the first series' climate code."""
    if not aligned or not all(series.pairs for series in aligned):
        raise AnalysisError("cannot export an empty series")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["device", "date", "energy_kwh", aligned[0].climate_code, "prcp"])
    for series in aligned:
        prcp = series.auxiliary.get("PRCP", (None,) * len(series.pairs))
        for (day, energy, climate), extra in zip(series.pairs, prcp):
            writer.writerow(
                [
                    series.device.raw,
                    day.isoformat(),
                    format(energy, "f"),
                    format(climate, "f"),
                    "" if extra is None else format(extra, "f"),
                ]
            )
    return buffer.getvalue()

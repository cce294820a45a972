"""Uplift of tabular energy data into the named cossmic graph.

Headings become topology triples (network, sites, grid, device links);
records become evaluation triples that a two-step evaluatedValue path can
traverse down to the numeric reading. IRIs are minted deterministically
so re-running the uplift is idempotent. The generators
(``topology_triples``, ``evaluation_triples``) feed a store's
``add_triples`` directly; ``topology_quads`` and ``evaluation_quads``
collect the same triples as a set of quads.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime, timedelta, timezone
from decimal import Context, Decimal, DivisionByZero, Inexact, InvalidOperation, Overflow
from enum import Enum
from functools import cache, partial
from typing import Iterable, Iterator, Optional, Sequence

from .errors import EnergyKgError
from .headings import DeviceHeading, DeviceRole, SiteKind, classify, parse_heading
from .namespaces import (
    DEFAULT_BASE,
    PROV,
    QUDT,
    RDF_TYPE,
    SEAS,
    cossmic_graph,
    device_resource,
)
from .record import Frozen, Record, set_field
from .terms import (
    MAX_DECIMAL_CHARS,
    GraphName,
    Iri,
    LiteralError,
    Quad,
    Triple,
    datetime_literal,
    decimal_literal,
    finite_decimal,
    parse_datetime,
)

_ONE_DAY = timedelta(days=1)


class UpliftError(EnergyKgError):
    """Invalid energy table, heading mix or counter behaviour."""


class CounterMode(str, Enum):
    CUMULATIVE = "cumulative"
    INTERVAL = "interval"


class EnergyRecord(Frozen):
    _fields = ("device", "timestamp", "value")

    def __init__(self, device: DeviceHeading, timestamp: datetime, value: Decimal) -> None:
        set_field(self, "device", device)
        set_field(self, "timestamp", timestamp)
        set_field(self, "value", value)


class EnergyTable(Record):
    _fields = ("timestamps", "columns", "counter_mode")

    def __init__(
        self,
        timestamps: list[datetime],
        columns: dict[str, list[Optional[Decimal]]],
        counter_mode: CounterMode = CounterMode.CUMULATIVE,
    ) -> None:
        self.timestamps = timestamps
        self.columns = columns
        self.counter_mode = counter_mode
        for heading, values in self.columns.items():
            if len(values) != len(self.timestamps):
                raise UpliftError(
                    f"column {heading!r} has {len(values)} values for "
                    f"{len(self.timestamps)} timestamps"
                )

    def records(self) -> list[EnergyRecord]:
        out = []
        for heading_text in self.columns:
            heading = parse_heading(heading_text)
            for ts, value in zip(self.timestamps, self.columns[heading_text]):
                if value is not None:
                    out.append(EnergyRecord(heading, ts, value))
        return out


# Columns the open power system data export carries besides the headings.
_PASSTHROUGH_COLUMNS = {"cet_cest_timestamp", "interpolated"}


def read_energy_csv(text: str, counter_mode: CounterMode = CounterMode.CUMULATIVE) -> EnergyTable:
    """Parse an energy CSV: utc_timestamp first, one column per heading."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise UpliftError("energy CSV is empty")
    if not header or header[0] != "utc_timestamp":
        raise UpliftError("energy CSV must start with a utc_timestamp column")
    keep = [
        i
        for i, name in enumerate(header[1:], start=1)
        if name not in _PASSTHROUGH_COLUMNS
    ]
    for i in keep:
        parse_heading(header[i])

    timestamps: list[datetime] = []
    columns: dict[str, list[Optional[Decimal]]] = {header[i]: [] for i in keep}
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not cell for cell in row):
            continue
        if len(row) != len(header):
            raise UpliftError(f"row {row_number}: expected {len(header)} cells, got {len(row)}")
        try:
            ts = parse_datetime(row[0])
        except EnergyKgError as exc:
            raise UpliftError(f"row {row_number}: {exc}")
        if timestamps and ts <= timestamps[-1]:
            raise UpliftError(f"row {row_number}: timestamps not strictly increasing")
        timestamps.append(ts)
        for i in keep:
            cell = row[i].strip()
            if not cell:
                columns[header[i]].append(None)
                continue
            try:
                columns[header[i]].append(finite_decimal(cell))
            except InvalidOperation:
                raise UpliftError(
                    f"row {row_number}: column {header[i]!r} has non-numeric value {cell!r}"
                )
    return EnergyTable(timestamps, columns, counter_mode)


def to_daily(table: EnergyTable) -> EnergyTable:
    """Resample to one value per UTC day, timestamped at midnight.

    Cumulative counters are differenced day over day (a day without a
    previous-day reading is skipped); interval readings are summed within
    the day. A decreasing cumulative counter is an error.

    The arithmetic keeps every digit that a written value may have
    (``MAX_DECIMAL_CHARS``) and raises where it would drop one, so no
    daily value is rounded.
    """
    context = Context(
        prec=MAX_DECIMAL_CHARS, traps=[InvalidOperation, DivisionByZero, Overflow, Inexact]
    )
    # Each timestamp's UTC day, shared by every column.
    day_of = [datetime(ts.year, ts.month, ts.day, tzinfo=timezone.utc) for ts in table.timestamps]
    daily: dict[str, dict[datetime, Decimal]] = {}
    all_days: set[datetime] = set()
    for heading, values in table.columns.items():
        try:
            series = [(day, v) for day, v in zip(day_of, values) if v is not None]
            per_day: dict[datetime, Decimal] = {}
            if table.counter_mode is CounterMode.CUMULATIVE:
                last_by_day: dict[datetime, Decimal] = {}
                previous: Optional[Decimal] = None
                for day, value in series:
                    if previous is not None and value < previous:
                        raise UpliftError(
                            f"cumulative counter for {heading!r} decreased on "
                            f"{day.date().isoformat()} (counter reset?)"
                        )
                    previous = value
                    last_by_day[day] = value
                for day, value in last_by_day.items():
                    before = day - _ONE_DAY
                    if before in last_by_day:
                        per_day[day] = context.subtract(value, last_by_day[before])
            else:
                for day, value in series:
                    per_day[day] = context.add(per_day.get(day, Decimal(0)), value)
        except Overflow:
            raise UpliftError(f"a daily value for {heading!r} is out of range")
        except Inexact:
            raise UpliftError(
                f"a daily value for {heading!r} has more than "
                f"{MAX_DECIMAL_CHARS} significant digits"
            )
        daily[heading] = per_day
        all_days.update(per_day)

    days = sorted(all_days)
    columns = {
        heading: [per_day.get(day) for day in days] for heading, per_day in daily.items()
    }
    return EnergyTable(days, columns, table.counter_mode)


# -- IRI minting -------------------------------------------------------------


def mint_device_iri(heading: DeviceHeading, base: Iri = DEFAULT_BASE) -> Iri:
    return device_resource(base, heading.raw)


def compact_utc(instant: datetime) -> str:
    """Basic-format UTC timestamp, safe inside an IRI path segment."""
    return instant.astimezone(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


# -- triple and quad emission --------------------------------------------------

def topology_triples(
    headings: Sequence[DeviceHeading], base: Iri = DEFAULT_BASE
) -> Iterator[Triple]:
    """Network, site, grid and device-link triples for a set of headings.

    All headings must share one country/city pair. A triple may be
    yielded more than once; the set of triples does not depend on
    heading order.
    """
    if not headings:
        raise UpliftError("no headings to uplift")
    prefixes = {(h.country, h.city) for h in headings}
    if len(prefixes) > 1:
        raise UpliftError(f"headings mix countries/cities: {sorted(prefixes)}")

    first = headings[0]
    network = device_resource(base, first.network_name)
    grid = device_resource(base, first.grid_name)
    yield network, RDF_TYPE, SEAS.ElectricPowerDistributionNetwork

    for heading in headings:
        site = device_resource(base, heading.site_name)
        device = mint_device_iri(heading, base)
        yield site, RDF_TYPE, SEAS.ElectricPowerSystem
        if heading.site_kind is SiteKind.INDUSTRIAL:
            yield site, RDF_TYPE, SEAS.IndustrialBuilding
        yield site, SEAS.subSystemOf, network
        role = classify(heading)
        if role is DeviceRole.PRODUCER:
            yield site, SEAS.producedElectricPower, device
            yield grid, SEAS.isPoweredBy, device
            yield grid, RDF_TYPE, SEAS.ElectricPowerTransmissionSystem
        elif role is DeviceRole.GRID_IMPORT:
            yield site, SEAS.isPoweredBy, device
            yield device, SEAS.subSystemOf, grid
            yield grid, RDF_TYPE, SEAS.ElectricPowerTransmissionSystem
        elif role is DeviceRole.CONSUMER:
            yield site, SEAS.consumedElectricPower, device
            yield device, RDF_TYPE, SEAS.ElectricPowerConsumer
        # Grid export meters carry evaluations but no modelled topology.


def evaluation_triples(
    records: Iterable[EnergyRecord], base: Iri = DEFAULT_BASE
) -> Iterator[Triple]:
    """Five triples per record: evaluation node, type, time, value node, number.

    Each device's IRI, and each timestamp's evaluation IRI suffix and
    ``xsd:dateTime`` literal, are minted once. A record repeating an
    earlier (device, timestamp) pair yields nothing; once every record has
    been read, the repeats are raised together.
    """
    device_iri = cache(partial(device_resource, base))
    stamp_of = cache(lambda ts: ("/evaluation/" + compact_utc(ts), datetime_literal(ts)))
    seen: set[tuple[str, datetime]] = set()
    duplicates = []
    for record in records:
        key = (record.device.raw, record.timestamp)
        if key in seen:
            duplicates.append(key)
            continue
        seen.add(key)
        try:
            number = decimal_literal(record.value)
        except LiteralError as exc:
            raise UpliftError(
                f"column {record.device.raw!r} at {record.timestamp.isoformat()}: {exc}"
            )
        device = device_iri(record.device.raw)
        suffix, time = stamp_of(record.timestamp)
        evaluation = Iri(device.value + suffix)
        value_node = Iri(evaluation.value + "/value")
        yield device, SEAS.evaluation, evaluation
        yield evaluation, RDF_TYPE, SEAS.ElectricPowerEvaluation
        yield evaluation, PROV.generatedAtTime, time
        yield evaluation, SEAS.evaluatedValue, value_node
        yield value_node, QUDT.numericalValue, number
    if duplicates:
        listing = ", ".join(f"{raw}@{ts.isoformat()}" for raw, ts in duplicates)
        raise UpliftError(f"duplicate (device, timestamp) records: {listing}")


def topology_quads(
    headings: Sequence[DeviceHeading],
    base: Iri = DEFAULT_BASE,
    graph: Optional[GraphName] = None,
) -> set[Quad]:
    """``topology_triples`` as quads in the graph (the cossmic graph by default)."""
    g = cossmic_graph(base) if graph is None else graph
    return {Quad(s, p, o, g) for s, p, o in topology_triples(headings, base)}


def evaluation_quads(
    records: Sequence[EnergyRecord],
    base: Iri = DEFAULT_BASE,
    graph: Optional[GraphName] = None,
) -> set[Quad]:
    """``evaluation_triples`` as quads in the graph (the cossmic graph by default)."""
    g = cossmic_graph(base) if graph is None else graph
    return {Quad(s, p, o, g) for s, p, o in evaluation_triples(records, base)}

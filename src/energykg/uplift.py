"""Uplift of tabular energy data into the named cossmic graph.

Headings become topology triples (network, sites, grid, device links);
each value of the table becomes evaluation triples that a two-step
evaluatedValue path can traverse down to the numeric reading. IRIs are
minted deterministically so re-running the uplift is idempotent. The
generators (``topology_triples``, ``evaluation_triples``,
``station_link``) give each term as its canonical text (``<iri>`` or
``"lexical"^^<datatype>``), which the CLI lists flat and hands to the
Turtle writer without building a store;
``topology_quads`` and ``evaluation_quads`` (of a table) collect the
same triples as a set of quads. An ``EnergyTable`` is the one form of
the readings from the CSV to the minted evaluations.

The CSV is read a block of rows at a time, and each block a column at a
time: each column's numbers are parsed in one ``map``
(``columns.number_column``). A daily read folds each block into each
column's per-day state as it is read (``_DailyFold``) and drops it, so
its memory follows the days it gives, not the readings it reads: a
cumulative counter is checked, and each day's last reading kept, by
C-level ``map``, ``zip`` and ``dict`` calls, and the day-over-day
arithmetic runs once per (column, day); ``to_daily`` folds a table read
whole as one block. The table is minted a column at a time. No
Python-level call runs per cell, and none per triple.

Every IRI is checked (``terms.check_iri``) once per distinct value it is
minted from: a device's IRI once per heading, and an evaluation's IRI,
which extends a checked device IRI with a timestamp's digits, not at all.
``check_decimal`` runs on every value written.
"""

from __future__ import annotations

import csv
from datetime import date, datetime, time, timedelta, timezone
from decimal import Context, Decimal, DivisionByZero, Inexact, InvalidOperation, Overflow
from enum import Enum
from functools import cache, reduce
from itertools import chain, compress, groupby, islice, repeat
from operator import add, is_not, itemgetter, le, lt, sub
from typing import Any, Callable, Iterator, Optional, Sequence

from .columns import (
    Failure, NotANumber, csv_blocks, csv_header, number_column, parse_column, raise_first,
    text_lines,
)
from .errors import EnergyKgError
from .headings import DeviceHeading, DeviceRole, SiteKind, classify, parse_heading
from .namespaces import (
    DEFAULT_BASE,
    PROV,
    QUDT,
    RDF_TYPE,
    SEAS,
    ca_property,
    cossmic_graph,
    device_resource,
)
from .record import Record
from .terms import (
    MAX_DECIMAL_CHARS,
    GraphName,
    Iri,
    LiteralError,
    Quad,
    TextTriple,
    datetime_literal,
    decimal_text,
    parse_datetime,
    term_key,
    text_quads,
)

_ONE_DAY = timedelta(days=1)
_ZERO = Decimal(0)
_MIDNIGHT_UTC = time(tzinfo=timezone.utc)
_FIRST, _SECOND = itemgetter(0), itemgetter(1)
# A CSV's timestamps are distinct, so they are parsed past parse_datetime's
# cache, which would only hold each text and its instant.
_parse_timestamp = parse_datetime.__wrapped__


class UpliftError(EnergyKgError):
    """Invalid energy table, heading mix or counter behaviour."""


class CounterMode(str, Enum):
    CUMULATIVE = "cumulative"
    INTERVAL = "interval"


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


# Columns the open power system data export carries besides the headings.
_PASSTHROUGH_COLUMNS = {"cet_cest_timestamp", "interpolated"}


def read_energy_csv(
    text: str, counter_mode: CounterMode = CounterMode.CUMULATIVE, daily: bool = False
) -> EnergyTable:
    """Parse an energy CSV: utc_timestamp first, one column per heading;
    with daily, resample it to days as ``to_daily`` does, as it is read.

    Blank rows are skipped, and a heading may not repeat. The rows are
    turned into columns a block of rows at a time (``columns.csv_blocks``),
    and each column of a block is parsed and checked whole: the
    timestamps, then each heading's numbers (``columns.number_column``),
    then the timestamps' order. An error names the first row that has
    one, and within it the first check of: the row's length, its
    timestamp, the timestamps' order, its cells from left to right.

    With daily, each block is folded into each column's per-day state
    (``_DailyFold``) and dropped, so the readings are never held
    together; a failure to read any row of the file still comes before
    any failure to resample.
    """
    reader = csv.reader(text_lines(text))
    header = csv_header(reader, UpliftError)
    if header is None:
        raise UpliftError("energy CSV is empty")
    if not header or header[0] != "utc_timestamp":
        raise UpliftError("energy CSV must start with a utc_timestamp column")
    keep = [
        i
        for i, name in enumerate(header[1:], start=1)
        if name not in _PASSTHROUGH_COLUMNS
    ]
    headings = [header[i] for i in keep]
    for heading in headings:
        parse_heading(heading)
    if len(set(headings)) < len(headings):
        repeated = next(h for k, h in enumerate(headings) if h in headings[:k])
        raise UpliftError(f"energy CSV header repeats heading {repeated!r}")

    if daily:
        fold = _DailyFold(headings, counter_mode)
        _read_rows(reader, header, keep, fold.add)
        return fold.table()
    timestamps: list[datetime] = []
    columns: dict[str, list[Optional[Decimal]]] = {heading: [] for heading in headings}

    def extend(stamps: list[datetime], values: list[list[Optional[Decimal]]]) -> None:
        timestamps.extend(stamps)
        for column, block in zip(columns.values(), values):
            column += block

    _read_rows(reader, header, keep, extend)
    return EnergyTable(timestamps, columns, counter_mode)


def _read_rows(
    reader: Iterator[list[str]],
    header: list[str],
    keep: list[int],
    take: Callable[[list[datetime], list[list[Optional[Decimal]]]], None],
) -> None:
    """Read the rows left in reader a block of rows at a time, and pass
    take each block's timestamps and the numbers of each column at keep.
    A block in which a row fails a check is not passed on: its earliest
    failure is raised, since no later row can fail earlier. A block's
    cells and values are dropped before the next block is read."""
    failures: list[Failure] = []
    # The rows' index, among the rows read, at the block's start; and the
    # last timestamp before it, if any.
    start = 0
    last: list[datetime] = []
    for cells, numbers in csv_blocks(reader, len(header), failures):
        stamps, failed = parse_column(_parse_timestamp, cells[0], EnergyKgError)
        if failed is not None:
            failures.append((start + len(stamps), 1, str(failed)))
        values = []
        for place, i in enumerate(keep, start=3):
            try:
                values.append(number_column(cells[i]))
            except NotANumber as exc:
                failures.append((start + exc.index, place, f"column {header[i]!r} has {exc}"))
        ordered = last + stamps
        later = _first_break(lt, ordered)
        if later is not None:
            failures.append((start - len(last) + later, 2, "timestamps not strictly increasing"))
        raise_first(failures, lambda index: f"row {numbers[index - start]}", UpliftError)
        take(stamps, values)
        start += len(stamps)
        last = ordered[-1:]
        del cells, values


def _first_break(holds: Callable[[Any, Any], bool], ordered: list) -> Optional[int]:
    """The first index k > 0 at which ``holds(ordered[k - 1], ordered[k])``
    is false, found by one C-level ``map``; or None."""
    if all(map(holds, ordered, islice(ordered, 1, None))):
        return None
    return next(k for k in range(1, len(ordered)) if not holds(ordered[k - 1], ordered[k]))


def to_daily(table: EnergyTable) -> EnergyTable:
    """Resample to one value per UTC day, timestamped at midnight.

    Cumulative counters are differenced day over day (a day without a
    previous-day reading is skipped); interval readings are summed within
    the day. A decreasing cumulative counter is an error. The table is
    folded (``_DailyFold``) as one block.
    """
    fold = _DailyFold(list(table.columns), table.counter_mode)
    fold.add(table.timestamps, list(table.columns.values()))
    return fold.table()


class _DailyFold:
    """The per-day state of each column of an energy table, fed its rows
    a block at a time (``add``), and the daily table it gives (``table``).

    A cumulative counter keeps each day's last reading; an interval
    column keeps each day's sum, added to in row order. Each column of a
    block is folded whole: one check that a counter never decreases,
    from its last reading before the block on, and each day's last
    reading by one ``dict.update``; or each day's sum in one decimal
    operation per reading. The day-over-day differences are taken once
    all rows are in. The blocks' timestamps must increase, so that a
    counter's last reading is its last day's. The arithmetic keeps
    every digit that a written value may have (``MAX_DECIMAL_CHARS``) and
    raises where it would drop one, so no daily value is rounded.

    A column's first failure is kept, and ``table`` raises the first
    column's, in header order, as resampling the table column by column
    would: a reader can so raise its own failures first.
    """

    def __init__(self, headings: list[str], counter_mode: CounterMode) -> None:
        self.counter_mode = counter_mode
        self.context = Context(
            prec=MAX_DECIMAL_CHARS, traps=[InvalidOperation, DivisionByZero, Overflow, Inexact]
        )
        # Per heading: each day's last reading, or its sum so far.
        self.days: dict[str, dict[date, Decimal]] = {heading: {} for heading in headings}
        self.failed: dict[str, UpliftError] = {}

    def add(self, timestamps: list[datetime], columns: list[list[Optional[Decimal]]]) -> None:
        """Fold in rows: their timestamps and each heading's values, in
        header order."""
        # Each timestamp's UTC day, shared by every column.
        day_of = list(map(datetime.date, timestamps))
        for heading, values in zip(self.days, columns):
            if heading in self.failed:
                continue
            present = list(map(is_not, values, repeat(None)))
            days = list(compress(day_of, present))
            readings = list(compress(values, present))
            per_day = self.days[heading]
            if self.counter_mode is CounterMode.INTERVAL:
                try:
                    for day, run in groupby(zip(days, readings), _FIRST):
                        per_day[day] = reduce(
                            self.context.add, map(_SECOND, run), per_day.get(day, _ZERO)
                        )
                except Inexact as exc:
                    self.failed[heading] = _daily_error(heading, exc)
                continue
            last = [next(reversed(per_day.values()))] if per_day else []
            k = _first_break(le, last + readings)
            if k is not None:
                self.failed[heading] = UpliftError(
                    f"cumulative counter for {heading!r} decreased on "
                    f"{days[k - len(last)].isoformat()} (counter reset?)"
                )
                continue
            per_day.update(zip(days, readings))

    def table(self) -> EnergyTable:
        """The daily table of the rows folded in, or the first column's
        failure."""
        daily: dict[str, dict[date, Decimal]] = {}
        for heading, per_day in self.days.items():
            if heading in self.failed:
                raise self.failed[heading]
            if self.counter_mode is CounterMode.CUMULATIVE:
                # Each day's last reading less the previous day's, for
                # each day that has a previous day.
                before = list(map(sub, per_day, repeat(_ONE_DAY)))
                follows = list(map(per_day.__contains__, before))
                try:
                    per_day = dict(
                        zip(
                            compress(per_day, follows),
                            map(
                                self.context.subtract,
                                compress(per_day.values(), follows),
                                map(per_day.__getitem__, compress(before, follows)),
                            ),
                        )
                    )
                except Inexact as exc:
                    raise _daily_error(heading, exc)
            daily[heading] = per_day
        days = sorted(set().union(*daily.values()))
        columns = {heading: list(map(per_day.get, days)) for heading, per_day in daily.items()}
        midnights = list(map(datetime.combine, days, repeat(_MIDNIGHT_UTC)))
        return EnergyTable(midnights, columns, self.counter_mode)


def _daily_error(heading: str, exc: Inexact) -> UpliftError:
    """The error for a daily value of the heading that the arithmetic
    cannot hold: out of range (``Overflow``), or with too many digits."""
    if isinstance(exc, Overflow):
        return UpliftError(f"a daily value for {heading!r} is out of range")
    return UpliftError(
        f"a daily value for {heading!r} has more than {MAX_DECIMAL_CHARS} significant digits"
    )


# -- IRI minting -------------------------------------------------------------


def mint_device_iri(heading: DeviceHeading, base: Iri = DEFAULT_BASE) -> Iri:
    return device_resource(base, heading.raw)


def compact_utc(instant: datetime) -> str:
    """Basic-format UTC timestamp, safe inside an IRI path segment."""
    return instant.astimezone(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


# -- triple and quad emission --------------------------------------------------

def topology_triples(
    headings: Sequence[DeviceHeading], base: Iri = DEFAULT_BASE
) -> Iterator[TextTriple]:
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

    text = cache(term_key)
    resource = cache(lambda name: text(device_resource(base, name)))
    first = headings[0]
    yield network_triple(device_resource(base, first.network_name))
    network = resource(first.network_name)
    grid = resource(first.grid_name)
    a = text(RDF_TYPE)

    for heading in headings:
        site = resource(heading.site_name)
        device = text(mint_device_iri(heading, base))
        yield site, a, text(SEAS.ElectricPowerSystem)
        if heading.site_kind is SiteKind.INDUSTRIAL:
            yield site, a, text(SEAS.IndustrialBuilding)
        yield site, text(SEAS.subSystemOf), network
        role = classify(heading)
        if role is DeviceRole.PRODUCER:
            yield site, text(SEAS.producedElectricPower), device
            yield grid, text(SEAS.isPoweredBy), device
            yield grid, a, text(SEAS.ElectricPowerTransmissionSystem)
        elif role is DeviceRole.GRID_IMPORT:
            yield site, text(SEAS.isPoweredBy), device
            yield device, text(SEAS.subSystemOf), grid
            yield grid, a, text(SEAS.ElectricPowerTransmissionSystem)
        elif role is DeviceRole.CONSUMER:
            yield site, text(SEAS.consumedElectricPower), device
            yield device, a, text(SEAS.ElectricPowerConsumer)
        # Grid export meters carry evaluations but no modelled topology.


def network_triple(network: Iri) -> TextTriple:
    """The network's type triple."""
    return term_key(network), term_key(RDF_TYPE), term_key(SEAS.ElectricPowerDistributionNetwork)


def evaluation_triples(table: EnergyTable, base: Iri = DEFAULT_BASE) -> Iterator[TextTriple]:
    """Five triples per value of the table: evaluation node, type, time,
    value node, number.

    Each column is minted whole, when iteration reaches it, from its
    values and their timestamps: no object is built per value,
    and the triples come from C-level iterators, without a Python-level
    step per triple. Each device's IRI, and each timestamp's evaluation
    IRI suffix and ``xsd:dateTime`` literal, are minted once. A table
    that repeats a timestamp under which a column has two values raises
    at once, naming every repeated (device, timestamp) pair.
    """
    timestamps = table.timestamps
    if len(set(timestamps)) < len(timestamps):
        _check_repeats(table)
    stamp_of = cache(
        lambda ts: ("/evaluation/" + compact_utc(ts), term_key(datetime_literal(ts)))
    )
    has_evaluation = term_key(SEAS.evaluation)
    a = term_key(RDF_TYPE)
    evaluation_class = term_key(SEAS.ElectricPowerEvaluation)
    generated_at = term_key(PROV.generatedAtTime)
    has_value = term_key(SEAS.evaluatedValue)
    number_of = term_key(QUDT.numericalValue)

    def column(heading: tuple[str, list[Optional[Decimal]]]) -> Iterator[TextTriple]:
        raw, values = heading
        present = list(map(is_not, values, repeat(None)))
        readings = list(compress(values, present))
        instants = list(compress(timestamps, present))
        numbers, failed = parse_column(decimal_text, readings, LiteralError)
        if failed is not None:
            raise UpliftError(f"column {raw!r} at {instants[len(numbers)].isoformat()}: {failed}")
        iri = mint_device_iri(parse_heading(raw), base)
        opened = list(map(add, repeat("<" + iri.value), map(_FIRST, map(stamp_of, instants))))
        evaluations = list(map(add, opened, repeat(">")))
        value_nodes = list(map(add, opened, repeat("/value>")))
        return chain.from_iterable(
            zip(
                zip(repeat(term_key(iri)), repeat(has_evaluation), evaluations),
                zip(evaluations, repeat(a), repeat(evaluation_class)),
                zip(evaluations, repeat(generated_at), map(_SECOND, map(stamp_of, instants))),
                zip(evaluations, repeat(has_value), value_nodes),
                zip(value_nodes, repeat(number_of), numbers),
            )
        )

    return chain.from_iterable(map(column, table.columns.items()))


def _check_repeats(table: EnergyTable) -> None:
    """Raise if a column has two values under one timestamp, naming each
    repeat in column order."""
    repeats = []
    for raw, values in table.columns.items():
        seen = set()
        for instant in compress(table.timestamps, map(is_not, values, repeat(None))):
            if instant in seen:
                repeats.append(f"{raw}@{instant.isoformat()}")
            seen.add(instant)
    if repeats:
        raise UpliftError(f"duplicate (device, timestamp) records: {', '.join(repeats)}")


def station_link(network: Iri, station: Iri, base: Iri = DEFAULT_BASE) -> TextTriple:
    """The network's retrieveWeatherFrom link to its weather station."""
    return term_key(network), term_key(ca_property(base, "retrieveWeatherFrom")), term_key(station)


def topology_quads(
    headings: Sequence[DeviceHeading],
    base: Iri = DEFAULT_BASE,
    graph: Optional[GraphName] = None,
) -> set[Quad]:
    """``topology_triples`` as quads in the graph (the cossmic graph by default)."""
    g = cossmic_graph(base) if graph is None else graph
    return text_quads(topology_triples(headings, base), g)


def evaluation_quads(
    table: EnergyTable,
    base: Iri = DEFAULT_BASE,
    graph: Optional[GraphName] = None,
) -> set[Quad]:
    """``evaluation_triples`` of the table as quads in the graph (the
    cossmic graph by default)."""
    g = cossmic_graph(base) if graph is None else graph
    return text_quads(evaluation_triples(table, base), g)

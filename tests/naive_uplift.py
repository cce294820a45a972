"""Row-at-a-time reference for the energy and climate ingest.

Straightforward versions of ``uplift.read_energy_csv``, ``uplift.to_daily``,
``climate.parse_noaa_csv`` and ``climate.parse_noaa_json``: each row is
read, checked and converted on its own, cell by cell, with Python's own
``Decimal`` and ``datetime.strptime`` parsing. The package reads whole
columns at once; the differential tests require the same tables and
observations from both, or the same error message.

Python's parsers accept spellings that the package rejects on purpose:
digits of other scripts and underscores in numbers, and a space-padded
day or other scripts' digits in a date. The differential tests leave
inputs holding those out of the comparison.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timedelta, timezone
from decimal import Context, Decimal, DivisionByZero, Inexact, InvalidOperation, Overflow
from typing import Optional

from energykg.climate import ClimateError, ClimateObservation
from energykg.errors import EnergyKgError
from energykg.headings import parse_heading
from energykg.terms import MAX_DECIMAL_CHARS, LiteralError, check_decimal, parse_datetime
from energykg.uplift import CounterMode, EnergyTable, UpliftError

_ONE_DAY = timedelta(days=1)
_PASSTHROUGH_COLUMNS = {"cet_cest_timestamp", "interpolated"}


def _finite_decimal(text: str) -> Decimal:
    value = Decimal(text)
    if not value.is_finite():
        raise InvalidOperation(f"not a finite number: {text!r}")
    return value


def read_energy_csv(text: str, counter_mode: CounterMode = CounterMode.CUMULATIVE) -> EnergyTable:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise UpliftError("energy CSV is empty")
    if not header or header[0] != "utc_timestamp":
        raise UpliftError("energy CSV must start with a utc_timestamp column")
    keep = [i for i, name in enumerate(header[1:], start=1) if name not in _PASSTHROUGH_COLUMNS]
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
                columns[header[i]].append(_finite_decimal(cell))
            except InvalidOperation:
                raise UpliftError(
                    f"row {row_number}: column {header[i]!r} has non-numeric value {cell!r}"
                )
    return EnergyTable(timestamps, columns, counter_mode)


def to_daily(table: EnergyTable) -> EnergyTable:
    context = Context(
        prec=MAX_DECIMAL_CHARS, traps=[InvalidOperation, DivisionByZero, Overflow, Inexact]
    )
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
    columns = {heading: [per_day.get(day) for day in days] for heading, per_day in daily.items()}
    return EnergyTable(days, columns, table.counter_mode)


_CSV_HEADER = ["station", "date", "datatype", "value"]


def _parse_day(text: str, where: str) -> datetime:
    day = text[:10]
    rest = text[10:]
    if rest not in ("", "T00:00:00", "T00:00:00Z", "T00:00:00+00:00"):
        raise ClimateError(f"{where}: date {text!r} is not at day resolution")
    try:
        parsed = datetime.strptime(day, "%Y-%m-%d")
    except ValueError:
        raise ClimateError(f"{where}: unparseable date {text!r}")
    return parsed.replace(tzinfo=timezone.utc)


def _scaled(value_text: str, scale: Decimal, where: str) -> Decimal:
    try:
        value = _finite_decimal(value_text)
    except InvalidOperation:
        raise ClimateError(f"{where}: non-numeric value {value_text!r}")
    try:
        return check_decimal(value * scale)
    except Overflow:
        raise ClimateError(f"{where}: value {value_text!r} times scale {scale} is out of range")
    except LiteralError as exc:
        raise ClimateError(f"{where}: {exc}")


def _check_duplicates(observations: list[ClimateObservation]) -> None:
    seen = set()
    for obs in observations:
        key = (obs.station_id, obs.date, obs.datatype)
        if key in seen:
            raise ClimateError(
                f"duplicate observation for station {obs.station_id!r}, "
                f"{obs.date.date().isoformat()}, {obs.datatype}"
            )
        seen.add(key)


def parse_noaa_csv(text: str, scale: Decimal = Decimal(1)) -> list[ClimateObservation]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ClimateError("climate CSV is empty")
    if [h.strip().lower() for h in header] != _CSV_HEADER:
        raise ClimateError(f"climate CSV header must be {','.join(_CSV_HEADER)}")
    observations: list[ClimateObservation] = []
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not cell for cell in row):
            continue
        if len(row) != 4:
            raise ClimateError(f"row {row_number}: expected 4 cells, got {len(row)}")
        station, date_text, code, value_text = (cell.strip() for cell in row)
        if not station:
            raise ClimateError(f"row {row_number}: empty station id")
        if not code:
            raise ClimateError(f"row {row_number}: empty datatype code")
        date = _parse_day(date_text, f"row {row_number}")
        value = _scaled(value_text, scale, f"row {row_number}")
        observations.append(ClimateObservation(station, date, code, value))
    _check_duplicates(observations)
    return observations


def parse_noaa_json(text: str, scale: Decimal = Decimal(1)) -> list[ClimateObservation]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ClimateError(f"invalid JSON: {exc}")
    if not isinstance(payload, list):
        raise ClimateError("climate JSON must be an array of objects")
    observations: list[ClimateObservation] = []
    for index, item in enumerate(payload):
        where = f"item {index}"
        if not isinstance(item, dict):
            raise ClimateError(f"{where}: not an object")
        try:
            station = str(item["station"])
            date = _parse_day(str(item["date"]), where)
            code = str(item["datatype"])
            value_text = str(item["value"])
        except KeyError as exc:
            raise ClimateError(f"{where}: missing field {exc.args[0]!r}")
        value = _scaled(value_text, scale, where)
        observations.append(ClimateObservation(station, date, code, value))
    _check_duplicates(observations)
    return observations

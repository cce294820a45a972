"""NOAA-style climate observations: parsing and uplift into the default graph.

Observations follow the station/observation/result shape: each one is
typed, points at its station, carries a resultTime and a result node
holding the numeric value and the datatype code. ``observation_triples``
yields them as canonical term texts, which the CLI hands to the Turtle
writer without building a store;
``observation_quads`` collects them as default-graph quads. The
network-to-station link (``uplift.station_link``) lives in the cossmic
graph instead.

CSV and JSON inputs are read into four columns of texts (station, date,
datatype, value), each parsed and checked whole (``columns.py``): each
distinct date once, with a regular expression in place of
``datetime.strptime`` (which would also load ``_strptime`` and
``calendar``), and the values in one ``map`` each to parse and scale.

A station's and a datatype's IRI are checked (``terms.check_iri``) once
per distinct id or code, and an observation's IRI once per (station,
datatype) pair, on the first observation of the pair: the day between
them is ISO digits, so the pair alone decides whether the IRI is valid,
and that first observation's IRI is the one an error names.
``check_decimal`` runs on every value written.
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import suppress
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation, Overflow
from functools import cache
from itertools import repeat
from operator import contains, mul
from typing import Callable, Iterable, Iterator, Sequence

from .columns import (
    Failure, NotANumber, csv_blocks, csv_header, number_column, parse_column, raise_first,
    spelt_number, text_lines,
)
from .errors import EnergyKgError
from .namespaces import (
    DEFAULT_BASE,
    QUDT,
    RDF_TYPE,
    SOSA,
    ca_class,
    ca_property,
    datatype_resource,
    observation_path,
    station_resource,
)
from .record import Frozen, set_field
from .terms import (
    Iri,
    LiteralError,
    Quad,
    TextTriple,
    check_decimal,
    check_iri,
    datetime_literal,
    decimal_text,
    term_key,
    text_quads,
)


class ClimateError(EnergyKgError):
    """Malformed observation input."""


class ClimateObservation(Frozen):
    _fields = ("station_id", "date", "datatype", "value")

    def __init__(self, station_id: str, date: datetime, datatype: str, value: Decimal) -> None:
        set_field(self, "station_id", station_id)
        set_field(self, "date", date)
        set_field(self, "datatype", datatype)
        set_field(self, "value", value)


_CSV_HEADER = ["station", "date", "datatype", "value"]

# A day as strptime's "%Y-%m-%d" reads it, in ASCII digits and without
# its space-padded day: a month or day may have one digit or two.
_DAY = re.compile(r"([0-9]{4})-(1[0-2]|0[1-9]|[1-9])-(3[01]|[12][0-9]|0[1-9]|[1-9])")
# What may follow a ten-character day.
_MIDNIGHT = ("", "T00:00:00", "T00:00:00Z", "T00:00:00+00:00")


def _parse_day(text: str) -> datetime:
    """Midnight UTC of the day that text names; ClimateError if it names
    none, or a time other than midnight."""
    if text[10:] not in _MIDNIGHT:
        raise ClimateError(f"date {text!r} is not at day resolution")
    match = _DAY.fullmatch(text, 0, 10)
    try:
        return datetime(*map(int, match.groups()), tzinfo=timezone.utc)
    except (AttributeError, ValueError):
        raise ClimateError(f"unparseable date {text!r}")


def _scaled(text: str, scale: Decimal) -> Decimal:
    """One value text's number times the scale; ClimateError if there is
    none, or if it cannot be written."""
    try:
        value = spelt_number(text.strip())
    except InvalidOperation:
        raise ClimateError(f"non-numeric value {text!r}")
    try:
        return check_decimal(value * scale)
    except Overflow:
        raise ClimateError(f"value {text!r} times scale {scale} is out of range")
    except LiteralError as exc:
        raise ClimateError(str(exc))


def _observations(
    where: Callable[[int], str],
    stations: Sequence[str],
    dates: Sequence[str],
    codes: Sequence[str],
    values: Sequence[str],
    scale: Decimal,
    failures: list[Failure],
) -> list[ClimateObservation]:
    """The observations of four columns of texts, each column parsed and
    checked whole: each distinct date parsed once, the values read
    (``columns.number_column``) and scaled in one ``map``.

    The earliest failure (``columns.raise_first``) raises with its row's
    label (``where``). A row's checks have these places: the row's shape
    (0), its station (1), its datatype's text in a CSV or its date's
    presence in JSON (2), the date (3), the datatype's (4) and the
    value's (5) presence in JSON, and the value (6). Then an observation
    repeating an earlier station, day and datatype raises."""
    distinct = list(dict.fromkeys(dates))
    parsed, failed = parse_column(_parse_day, distinct, ClimateError)
    if failed is not None:
        failures.append((dates.index(distinct[len(parsed)]), 3, str(failed)))
    days = dict(zip(distinct, parsed))
    scaled = None
    with suppress(NotANumber, Overflow, LiteralError):
        numbers = number_column(values)
        # An empty cell's None is no number here.
        if None not in numbers:
            scaled = list(map(check_decimal, map(mul, numbers, repeat(scale))))
    if scaled is None:
        scaled, failed = parse_column(lambda text: _scaled(text, scale), values, ClimateError)
        failures.append((len(scaled), 6, str(failed)))
    raise_first(failures, where, ClimateError)
    instants = list(map(days.__getitem__, dates))
    keys = list(zip(stations, instants, codes))
    if len(set(keys)) < len(keys):
        seen = set()
        for station, instant, code in keys:
            if (station, instant, code) in seen:
                raise ClimateError(
                    f"duplicate observation for station {station!r}, "
                    f"{instant.date().isoformat()}, {code}"
                )
            seen.add((station, instant, code))
    return list(map(ClimateObservation, stations, instants, codes, scaled))


def parse_noaa_csv(text: str, scale: Decimal = Decimal(1)) -> list[ClimateObservation]:
    """Parse `station,date,datatype,value` rows; datatype codes pass through.

    Blank rows are skipped, and every cell is stripped. The rows are
    turned into columns, each parsed and checked whole."""
    reader = csv.reader(text_lines(text))
    header = csv_header(reader, ClimateError)
    if header is None:
        raise ClimateError("climate CSV is empty")
    if [h.strip().lower() for h in header] != _CSV_HEADER:
        raise ClimateError(f"climate CSV header must be {','.join(_CSV_HEADER)}")
    failures: list[Failure] = []
    numbers: list[int] = []
    stations, dates, codes, values = columns = ([], [], [], [])
    for cells, block_numbers in csv_blocks(reader, 4, failures):
        numbers += block_numbers
        for column, texts in zip(columns, cells):
            column += map(str.strip, texts)
    if "" in stations:
        failures.append((stations.index(""), 1, "empty station id"))
    if "" in codes:
        failures.append((codes.index(""), 2, "empty datatype code"))
    return _observations(
        lambda index: f"row {numbers[index]}", stations, dates, codes, values, scale, failures
    )


def parse_noaa_json(text: str, scale: Decimal = Decimal(1)) -> list[ClimateObservation]:
    """Parse a JSON array of {station, date, datatype, value} objects.

    Each field's values are taken as text (``str``) in one column, and
    the columns are parsed and checked whole."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ClimateError(f"invalid JSON: {exc}")
    if not isinstance(payload, list):
        raise ClimateError("climate JSON must be an array of objects")
    failures: list[Failure] = []
    objects = list(map(isinstance, payload, repeat(dict)))
    if not all(objects):
        index = objects.index(False)
        failures.append((index, 0, "not an object"))
        payload = payload[:index]
    columns = []
    for place, field in ((1, "station"), (2, "date"), (4, "datatype"), (5, "value")):
        present = list(map(contains, payload, repeat(field)))
        if not all(present):
            failures.append((present.index(False), place, f"missing field {field!r}"))
        columns.append(list(map(str, map(dict.get, payload, repeat(field), repeat("")))))
    return _observations(lambda index: f"item {index}", *columns, scale, failures)


def observation_triples(
    observations: Iterable[ClimateObservation], base: Iri = DEFAULT_BASE
) -> Iterator[TextTriple]:
    """Six triples per observation.

    Each station's and datatype's IRI, and each day's path segment and
    ``xsd:dateTime`` literal, are minted once.
    """
    a = term_key(RDF_TYPE)
    observation_class = term_key(ca_class(base, "Observation"))
    result_time = term_key(SOSA.resultTime)
    has_result = term_key(SOSA.hasResult)
    numeric_value = term_key(QUDT.numericValue)
    source_station = term_key(ca_property(base, "sourceStation"))
    with_datatype = term_key(ca_property(base, "withDataType"))
    station_text = cache(lambda station_id: term_key(station_resource(base, station_id)))
    datatype_text = cache(lambda code: term_key(datatype_resource(base, code)))
    # A day's segment of an observation's IRI, and its xsd:dateTime text.
    day_of = cache(lambda date: (date.date().isoformat(), term_key(datetime_literal(date))))
    checked: set[tuple[str, str]] = set()
    for obs in observations:
        day, time = day_of(obs.date)
        node = observation_path(base, obs.station_id, day, obs.datatype)
        pair = (obs.station_id, obs.datatype)
        if pair not in checked:
            check_iri(node)
            checked.add(pair)
        result = "<" + node + "/result>"
        node = "<" + node + ">"
        yield node, a, observation_class
        yield node, source_station, station_text(obs.station_id)
        yield node, result_time, time
        yield node, has_result, result
        yield result, numeric_value, decimal_text(obs.value)
        yield result, with_datatype, datatype_text(obs.datatype)


def observation_quads(
    observations: Sequence[ClimateObservation], base: Iri = DEFAULT_BASE
) -> set[Quad]:
    """``observation_triples`` as default-graph quads."""
    return text_quads(observation_triples(observations, base), None)

"""NOAA-style climate observations: parsing and uplift into the default graph.

Observations follow the station/observation/result shape: each one is
typed, points at its station, carries a resultTime and a result node
holding the numeric value and the datatype code. ``observation_triples``
yields them for a store's ``add_triples``; ``observation_quads`` collects
them as default-graph quads. The network-to-station link quad lives in
the cossmic graph instead.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation, Overflow
from functools import cache, partial
from typing import Iterable, Iterator, Optional, Sequence

from .errors import EnergyKgError
from .namespaces import (
    DEFAULT_BASE,
    QUDT,
    RDF_TYPE,
    SOSA,
    ca_class,
    ca_property,
    cossmic_graph,
    datatype_resource,
    observation_resource,
    station_resource,
)
from .record import Frozen, set_field
from .terms import (
    GraphName,
    Iri,
    LiteralError,
    Quad,
    Triple,
    check_decimal,
    datetime_literal,
    decimal_literal,
    finite_decimal,
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
        value = finite_decimal(value_text)
    except InvalidOperation:
        raise ClimateError(f"{where}: non-numeric value {value_text!r}")
    try:
        return check_decimal(value * scale)
    except Overflow:
        raise ClimateError(f"{where}: value {value_text!r} times scale {scale} is out of range")
    except LiteralError as exc:
        raise ClimateError(f"{where}: {exc}")


def _check_duplicates(observations: Sequence[ClimateObservation]) -> None:
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
    """Parse `station,date,datatype,value` rows; datatype codes pass through."""
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
    """Parse a JSON array of {station, date, datatype, value} objects."""
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


def observation_triples(
    observations: Iterable[ClimateObservation], base: Iri = DEFAULT_BASE
) -> Iterator[Triple]:
    """Six triples per observation.

    Each station's and datatype's IRI, and each day's path segment and
    ``xsd:dateTime`` literal, are minted once.
    """
    observation_class = ca_class(base, "Observation")
    source_station = ca_property(base, "sourceStation")
    with_datatype = ca_property(base, "withDataType")
    station_iri = cache(partial(station_resource, base))
    datatype_iri = cache(partial(datatype_resource, base))
    day_of = cache(lambda date: (date.date().isoformat(), datetime_literal(date)))
    for obs in observations:
        day, time = day_of(obs.date)
        node = observation_resource(base, obs.station_id, day, obs.datatype)
        result = Iri(node.value + "/result")
        yield node, RDF_TYPE, observation_class
        yield node, source_station, station_iri(obs.station_id)
        yield node, SOSA.resultTime, time
        yield node, SOSA.hasResult, result
        yield result, QUDT.numericValue, decimal_literal(obs.value)
        yield result, with_datatype, datatype_iri(obs.datatype)


def observation_quads(
    observations: Sequence[ClimateObservation], base: Iri = DEFAULT_BASE
) -> set[Quad]:
    """``observation_triples`` as default-graph quads."""
    return {Quad(s, p, o, None) for s, p, o in observation_triples(observations, base)}


def link_network_to_station(
    network: Iri,
    station: Iri,
    base: Iri = DEFAULT_BASE,
    graph: Optional[GraphName] = None,
) -> Quad:
    """The retrieveWeatherFrom link, placed in the cossmic graph."""
    g = cossmic_graph(base) if graph is None else graph
    return Quad(network, ca_property(base, "retrieveWeatherFrom"), station, g)

"""NOAA-style climate observations: parsing and uplift into the default graph.

Observations follow the station/observation/result shape: each one is
typed, points at its station, carries a resultTime and a result node
holding the numeric value and the datatype code. The network-to-station
link quad lives in the cossmic graph instead.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from typing import Optional, Sequence

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
from .terms import GraphName, Iri, Quad, datetime_literal, decimal_literal


class ClimateError(EnergyKgError):
    """Malformed observation input."""


@dataclass(frozen=True)
class ClimateObservation:
    station_id: str
    date: datetime
    datatype: str
    value: Decimal


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
        try:
            value = Decimal(value_text) * scale
        except InvalidOperation:
            raise ClimateError(f"row {row_number}: non-numeric value {value_text!r}")
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
            value = Decimal(str(item["value"])) * scale
        except KeyError as exc:
            raise ClimateError(f"{where}: missing field {exc.args[0]!r}")
        except InvalidOperation:
            raise ClimateError(f"{where}: non-numeric value {item.get('value')!r}")
        observations.append(ClimateObservation(station, date, code, value))
    _check_duplicates(observations)
    return observations


def observation_quads(
    observations: Sequence[ClimateObservation], base: Iri = DEFAULT_BASE
) -> set[Quad]:
    """Six default-graph quads per observation."""
    quads: set[Quad] = set()
    observation_class = ca_class(base, "Observation")
    source_station = ca_property(base, "sourceStation")
    with_datatype = ca_property(base, "withDataType")
    for obs in observations:
        day = obs.date.date().isoformat()
        node = observation_resource(base, obs.station_id, day, obs.datatype)
        result = Iri(node.value + "/result")
        quads.add(Quad(node, RDF_TYPE, observation_class, None))
        quads.add(Quad(node, source_station, station_resource(base, obs.station_id), None))
        quads.add(Quad(node, SOSA.resultTime, datetime_literal(obs.date), None))
        quads.add(Quad(node, SOSA.hasResult, result, None))
        quads.add(Quad(result, QUDT.numericValue, decimal_literal(obs.value), None))
        quads.add(Quad(result, with_datatype, datatype_resource(base, obs.datatype), None))
    return quads


def link_network_to_station(
    network: Iri,
    station: Iri,
    base: Iri = DEFAULT_BASE,
    graph: Optional[GraphName] = None,
) -> Quad:
    """The retrieveWeatherFrom link, placed in the cossmic graph."""
    g = cossmic_graph(base) if graph is None else graph
    return Quad(network, ca_property(base, "retrieveWeatherFrom"), station, g)

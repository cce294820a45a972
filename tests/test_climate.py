from datetime import datetime, timezone
from decimal import Decimal

import pytest

from energykg.climate import (
    ClimateError,
    ClimateObservation,
    observation_quads,
    parse_noaa_csv,
    parse_noaa_json,
)
from energykg.dataset import ANY
from energykg.namespaces import (
    DEFAULT_BASE,
    QUDT,
    RDF_TYPE,
    SOSA,
    ca_class,
    ca_property,
    cossmic_graph,
    datatype_resource,
    device_resource,
    station_resource,
)
from energykg.terms import Literal, XSD_DATETIME, XSD_DECIMAL, term_key
from energykg.uplift import station_link

from stores import quad_store, store

STATION = "GHCND:GME00102404"


def utc(day):
    return datetime(2016, 5, day, tzinfo=timezone.utc)


def test_parse_csv_row():
    observations = parse_noaa_csv("station,date,datatype,value\nGHCND:GME00102404,2016-05-01,TMAX,22.3\n")
    assert observations == [ClimateObservation(STATION, utc(1), "TMAX", Decimal("22.3"))]


def test_parse_csv_empty_body():
    assert parse_noaa_csv("station,date,datatype,value\n") == []


def test_parse_csv_accepts_open_datatype_vocabulary():
    observations = parse_noaa_csv("station,date,datatype,value\nX,2016-05-01,PRCP,1.2\nX,2016-05-01,SNWD,0\n")
    assert [o.datatype for o in observations] == ["PRCP", "SNWD"]


def test_parse_csv_error_carries_line_number():
    with pytest.raises(ClimateError) as excinfo:
        parse_noaa_csv("station,date,datatype,value\nX,not-a-date,TMAX,1\n")
    assert "row 2" in str(excinfo.value)


def test_parse_csv_rejects_duplicate_station_day_datatype():
    text = "station,date,datatype,value\nX,2016-05-01,TMAX,1\nX,2016-05-01,TMAX,2\n"
    with pytest.raises(ClimateError) as excinfo:
        parse_noaa_csv(text)
    assert "duplicate" in str(excinfo.value)


def test_parse_csv_rejects_sub_daily_dates():
    with pytest.raises(ClimateError):
        parse_noaa_csv("station,date,datatype,value\nX,2016-05-01T12:00:00,TMAX,1\n")


def test_parse_csv_scale_factor():
    observations = parse_noaa_csv(
        "station,date,datatype,value\nX,2016-05-01,TMAX,223\n", scale=Decimal("0.1")
    )
    assert observations[0].value == Decimal("22.3")


def test_parse_json_matches_csv():
    text = '[{"station": "X", "date": "2016-05-01T00:00:00", "datatype": "TMAX", "value": 22.3}]'
    observations = parse_noaa_json(text)
    assert observations == [ClimateObservation("X", utc(1), "TMAX", Decimal("22.3"))]


def test_observation_quads_shape():
    observation = ClimateObservation(STATION, utc(1), "TMAX", Decimal("22.3"))
    quads = observation_quads([observation])
    assert len(quads) == 6
    assert all(q.graph is None for q in quads)
    ds = quad_store(quads)
    (typed,) = ds.match(ANY, RDF_TYPE, ca_class(DEFAULT_BASE, "Observation"), None)
    node = typed.subject
    (station_quad,) = ds.match(node, ca_property(DEFAULT_BASE, "sourceStation"), ANY, None)
    assert station_quad.object == station_resource(DEFAULT_BASE, STATION)
    (time_quad,) = ds.match(node, SOSA.resultTime, ANY, None)
    assert time_quad.object == Literal("2016-05-01T00:00:00Z", XSD_DATETIME)
    (result_quad,) = ds.match(node, SOSA.hasResult, ANY, None)
    result = result_quad.object
    (value_quad,) = ds.match(result, QUDT.numericValue, ANY, None)
    assert value_quad.object == Literal("22.3", XSD_DECIMAL)
    (datatype_quad,) = ds.match(result, ca_property(DEFAULT_BASE, "withDataType"), ANY, None)
    assert datatype_quad.object == datatype_resource(DEFAULT_BASE, "TMAX")


def test_observation_quads_empty():
    assert observation_quads([]) == set()


def test_same_day_different_datatypes_coexist():
    quads = observation_quads(
        [
            ClimateObservation(STATION, utc(1), "TMAX", Decimal("22.3")),
            ClimateObservation(STATION, utc(1), "PRCP", Decimal("2.5")),
        ]
    )
    ds = quad_store(quads)
    tmax_results = ds.match(ANY, ca_property(DEFAULT_BASE, "withDataType"), datatype_resource(DEFAULT_BASE, "TMAX"), None)
    assert len(tmax_results) == 1


def test_link_quad_shape_and_idempotence():
    network = device_resource(DEFAULT_BASE, "DE_KN_COSSMIC")
    station = station_resource(DEFAULT_BASE, STATION)
    link = station_link(network, station)
    predicate = ca_property(DEFAULT_BASE, "retrieveWeatherFrom")
    assert link == tuple(map(term_key, (network, predicate, station)))
    assert len(store((cossmic_graph(), [link, station_link(network, station)]))) == 1
    other = station_link(network, station_resource(DEFAULT_BASE, "GHCND:OTHER"))
    ds = store((cossmic_graph(), [link, other]))
    assert len(ds.match(network, predicate, ANY, cossmic_graph())) == 2


@pytest.mark.parametrize(
    "value, message",
    [
        ("1_0", "row 2: non-numeric value '1_0'"),
        ("\u0661", "row 2: non-numeric value '\u0661'"),
        ("nan", "row 2: non-numeric value 'nan'"),
    ],
)
def test_parse_csv_accepts_only_ascii_number_spellings(value, message):
    with pytest.raises(ClimateError) as excinfo:
        parse_noaa_csv(f"station,date,datatype,value\nX,2016-05-01,TMAX,{value}\n")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("date", ["2016-05- 2", "\u0662\u0660\u0661\u0666-05-01", "2016-02-30"])
def test_parse_csv_rejects_dates_outside_the_ascii_day_form(date):
    with pytest.raises(ClimateError) as excinfo:
        parse_noaa_csv(f"station,date,datatype,value\nX,{date},TMAX,1\n")
    assert str(excinfo.value) == f"row 2: unparseable date {date!r}"


@pytest.mark.parametrize("date", ["2016-5-2", "2016-05-2", "2016-5-02", "2016-05-02T00:00:00Z"])
def test_parse_csv_reads_one_digit_months_and_days(date):
    (observation,) = parse_noaa_csv(f"station,date,datatype,value\nX,{date},TMAX,1\n")
    assert observation.date == utc(2)


def test_parse_json_rejects_python_only_spellings():
    text = '[{"station": "X", "date": "2016-05-01", "datatype": "TMAX", "value": "1_0"}]'
    with pytest.raises(ClimateError, match=r"^item 0: non-numeric value '1_0'$"):
        parse_noaa_json(text)

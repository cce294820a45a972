"""The column-at-a-time ingest against the row-at-a-time reference.

``naive_uplift`` reads, checks and converts one row, one cell at a time.
For generated energy CSVs (blank rows, padding, empty cells, helper
columns, gaps, counter resets, NaN and Infinity, non-numbers, unsorted
and malformed timestamps, rows of the wrong length, both counter modes
and both resolutions) and generated climate CSV and JSON inputs, the
package must give the same table or observations, or fail with the
same error message.

The package rejects on purpose some spellings that Python's parsers
accept: a number with underscores or with the digits of another script,
and a date with a space-padded day or non-ASCII digits. Inputs holding
one of those are left out of the comparison; their rejection is tested
in ``test_uplift.py`` and ``test_climate.py``.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation

import naive_uplift
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from energykg import climate, uplift
from energykg.climate import ClimateError
from energykg.errors import EnergyKgError
from energykg.columns import spelt_number

_HEADINGS = [
    "DE_KN_residential1_pv",
    "DE_KN_residential1_freezer",
    "DE_KN_industrial1_grid_import",
    "DE_KN_residential2_heat_pump_2",
]
_HELPERS = ["cet_cest_timestamp", "interpolated"]

_numbers = st.one_of(
    st.integers(-5, 400).map(str),
    st.decimals(-100, 10_000, places=3, allow_nan=False).map(str),
    st.sampled_from(
        [
            "0", "-0", "+7", "1e3", "2E-2", ".5", "5.", "007", "1.50", "1e999999",
            "-1e999999", "1e9999999999999999999", "123456789012345678901234567890.5",
            "9" * 120, "1" + "0" * 99 + ".1",
        ]
    ),
)
_junk = st.sampled_from(
    ["NaN", "nan", "Infinity", "-inf", "sNaN", "abc", "1.2.3", "--1", "e5", ".", "+", "1e",
     "1 2", "0x10", "1,5", "½", "1_0", "١٢", "１"]
)
_cells = st.one_of(
    _numbers,
    _numbers.map(lambda text: f"  {text}\t"),
    st.just(""),
    st.just("  "),
    _junk,
)


def _python_only_number(text: str) -> bool:
    """Whether Python's Decimal reads the stripped text as a finite number
    that the package rejects."""
    stripped = text.strip()
    try:
        if not Decimal(stripped).is_finite():
            return False
    except InvalidOperation:
        return False
    try:
        spelt_number(stripped)
    except InvalidOperation:
        return True
    return False


_stamps = st.one_of(
    st.datetimes(
        min_value=datetime(2016, 4, 28), max_value=datetime(2016, 5, 4),
        timezones=st.just(timezone.utc),
    ).map(lambda ts: ts.strftime("%Y-%m-%dT%H:00:00Z")),
    st.sampled_from(
        ["2016-05-01T00:00:00", "2016-05-01T01:30:00+01:00", "2016-05-02", "not a time", ""]
    ),
)


@st.composite
def _energy_csvs(draw):
    headings = draw(st.lists(st.sampled_from(_HEADINGS), min_size=0, max_size=3, unique=True))
    header = ["utc_timestamp"] + headings
    for helper in draw(st.lists(st.sampled_from(_HELPERS), max_size=2, unique=True)):
        header.insert(draw(st.integers(1, len(header))), helper)
    valid = draw(st.lists(
        st.datetimes(
            min_value=datetime(2016, 4, 28), max_value=datetime(2016, 5, 6),
            timezones=st.just(timezone.utc),
        ),
        max_size=40, unique=True,
    ))
    stamps = [ts.strftime("%Y-%m-%dT%H:%M:%SZ") for ts in sorted(valid)]
    if draw(st.booleans()):
        # A few timestamps replaced, swapped or repeated.
        for _ in range(draw(st.integers(1, 2))):
            if stamps:
                stamps[draw(st.integers(0, len(stamps) - 1))] = draw(_stamps)
    counters = [Decimal(draw(st.integers(0, 50))) for _ in header]
    lines = [",".join(header)]
    monotone = draw(st.booleans())
    for stamp in stamps:
        cells = [stamp]
        for i in range(1, len(header)):
            if monotone and draw(st.integers(0, 4)):
                counters[i] += Decimal(draw(st.integers(0, 300))) / 100
                cells.append(str(counters[i]))
            else:
                cells.append(draw(_cells))
        shape = draw(st.integers(0, 120))
        if shape == 0:
            cells.append("1")
        elif shape == 1:
            cells.pop()
        elif shape == 2:
            lines.append("," * (len(header) - 1))
        elif shape == 3:
            lines.append("")
        elif shape == 4 and len(cells) > 1:
            cells[-1] = '"1\n2"'
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _outcome(read, *args):
    try:
        return "ok", read(*args)
    except EnergyKgError as exc:
        return type(exc).__name__, str(exc)


def _table_key(table):
    """Every field of a table, with each value's exact text (its exponent too)."""
    columns = {
        heading: [None if value is None else str(value) for value in values]
        for heading, values in table.columns.items()
    }
    return table.timestamps, columns, table.counter_mode


def _ingest(module, text, mode, resolution):
    table = module.read_energy_csv(text, mode)
    if resolution == "daily":
        table = module.to_daily(table)
    return _table_key(table)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=_energy_csvs(),
    mode=st.sampled_from(list(uplift.CounterMode)),
    resolution=st.sampled_from(["daily", "raw"]),
)
def test_energy_ingest_matches_the_row_at_a_time_reference(text, mode, resolution):
    assume(not any(map(_python_only_number, text.replace("\n", ",").split(","))))
    expected = _outcome(_ingest, naive_uplift, text, mode, resolution)
    assert _outcome(_ingest, uplift, text, mode, resolution) == expected


_iso_days = st.dates(
    min_value=datetime(2016, 1, 1).date(), max_value=datetime(2016, 1, 12).date()
).map(lambda day: day.isoformat())
_days = st.one_of(
    _iso_days,
    _iso_days,
    st.sampled_from(
        [
            "2016-5-1", "2016-05-1", "2016-10-9", "2016-05-01T00:00:00", "2016-05-01T00:00:00Z",
            "2016-05-01T00:00:00+00:00", "2016-05-01T12:00:00", "2016-5-1T00:00:00",
            "2016-02-30", "2016-13-01", "0000-01-01", "0999-12-31", "16-05-01", "2016/05/01",
            "2016-05-01 ", "", "x", "2016-05- 2", "٢٠١٦-05-01",
        ]
    ),
)
_stations = st.sampled_from(["GHCND:A", "B", " C ", ""])
_codes = st.sampled_from(["TMAX", "PRCP", " TMIN", ""])
_scales = st.sampled_from(["1", "0.1", "10", "1e999990", "1e-80"]).map(Decimal)


def _python_only_day(text: str) -> bool:
    def parses(parse, *args):
        try:
            parse(*args)
        except ClimateError:
            return False
        return True

    return parses(naive_uplift._parse_day, text, "") and not parses(climate._parse_day, text)


@st.composite
def _climate_csvs(draw):
    header = draw(st.sampled_from(
        ["station,date,datatype,value", " Station , DATE ,datatype,value", "station,date,value"]
    ))
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(_stations), draw(_days), draw(_codes), draw(_cells)]
        shape = draw(st.integers(0, 25))
        if shape == 0:
            cells.append("x")
        elif shape == 1:
            cells.pop()
        elif shape == 2:
            lines.append(",,,")
        elif shape == 3:
            lines.append("")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _observations(parse, text, scale):
    return [(o.station_id, o.date, o.datatype, str(o.value)) for o in parse(text, scale)]


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_climate_csvs(), scale=_scales)
def test_climate_csv_matches_the_row_at_a_time_reference(text, scale):
    cells = [cell.strip() for line in text.split("\n") for cell in line.split(",")]
    assume(not any(map(_python_only_number, cells)))
    assume(not any(map(_python_only_day, cells)))
    expected = _outcome(_observations, naive_uplift.parse_noaa_csv, text, scale)
    assert _outcome(_observations, climate.parse_noaa_csv, text, scale) == expected


_json_values = st.one_of(
    _numbers,
    _cells, st.integers(-50, 50), st.floats(-1e3, 1e3, allow_nan=False), st.none(),
    st.booleans(), st.just(float("nan")), st.just(1e300),
)


@st.composite
def _climate_jsons(draw):
    if draw(st.integers(0, 30)) == 0:
        return draw(st.sampled_from(['{"station": "A"}', "[", "3"]))
    items = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 60)) == 0:
            items.append(draw(st.sampled_from([[], "item", 3, None])))
            continue
        item = {
            "station": draw(st.one_of(_stations, st.integers(0, 3))),
            "date": draw(_days),
            "datatype": draw(_codes),
            "value": draw(_json_values),
        }
        for field in draw(st.lists(st.sampled_from(sorted(item)), max_size=2)):
            if draw(st.integers(0, 25)) == 0:
                item.pop(field, None)
        items.append(item)
    return json.dumps(items)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_climate_jsons(), scale=_scales)
def test_climate_json_matches_the_row_at_a_time_reference(text, scale):
    payload = json.loads(text) if text.startswith("[") and text != "[" else []
    fields = [item for item in payload if isinstance(item, dict)]
    assume(not any(_python_only_number(str(item.get("value", ""))) for item in fields))
    assume(not any(_python_only_day(str(item.get("date", ""))) for item in fields))
    expected = _outcome(_observations, naive_uplift.parse_noaa_json, text, scale)
    assert _outcome(_observations, climate.parse_noaa_json, text, scale) == expected

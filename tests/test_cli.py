import gc
import json
import os
import subprocess
import sys
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from energykg import cli, turtle_writer
from energykg.analysis import AnalysisError
from energykg.cli import cmd_analyze, cmd_climate, cmd_query, cmd_uplift, load_store, main
from energykg.config import ConfigError, PipelineConfig, load_config
from energykg.dataset import Dataset
from energykg.endpoint import EndpointConfig, EndpointServer
from energykg.errors import EnergyKgError

DATA = Path(__file__).parent / "data"

ENERGY_CSV = """utc_timestamp,DE_KN_industrial1_pv_1,DE_KN_industrial1_grid_import
2016-04-30T22:00:00Z,100.0,50.0
2016-05-01T22:00:00Z,112.5,53.0
2016-05-02T22:00:00Z,125.5,57.5
2016-05-03T22:00:00Z,135.25,60.0
"""

CLIMATE_CSV = """station,date,datatype,value
GHCND:GME00102404,2016-05-01,TMAX,22.3
GHCND:GME00102404,2016-05-02,TMAX,25.0
GHCND:GME00102404,2016-05-03,TMAX,18.1
GHCND:GME00102404,2016-05-01,PRCP,0
GHCND:GME00102404,2016-05-02,PRCP,2.5
GHCND:GME00102404,2016-05-03,PRCP,7.1
"""


@pytest.fixture()
def config(tmp_path):
    return load_config(cli_overrides={"out": str(tmp_path / "out")})


@pytest.fixture()
def store_files(tmp_path, config):
    energy = tmp_path / "energy.csv"
    energy.write_text(ENERGY_CSV)
    climate = tmp_path / "climate.csv"
    climate.write_text(CLIMATE_CSV)
    cossmic_ttl = cmd_uplift(str(energy), config)
    climate_ttl = cmd_climate(str(climate), config)
    return [cossmic_ttl, climate_ttl]


def test_uplift_writes_graph_marker_and_is_deterministic(tmp_path, config):
    energy = tmp_path / "energy.csv"
    energy.write_text(ENERGY_CSV)
    path = cmd_uplift(str(energy), config)
    first = Path(path).read_text()
    assert first.startswith("# graph <http://jresearch.ucd.ie/climate-kg/graph/cossmic>\n")
    assert Path(cmd_uplift(str(energy), config)).read_text() == first


def test_uplift_matches_golden_file(tmp_path, config):
    energy = tmp_path / "energy.csv"
    energy.write_text(ENERGY_CSV)
    path = cmd_uplift(str(energy), config)
    assert Path(path).read_text() == (DATA / "cossmic_uplift_golden.ttl").read_text()


def test_uplift_daily_resolution_differences(store_files, config):
    ds = load_store(store_files, config)
    text = Path(store_files[0]).read_text()
    # Day-over-day differences of the cumulative counter.
    assert '"12.5"' in text and '"13.0"' in text and '"9.75"' in text
    assert '"100.0"' not in text


def test_uplift_raw_resolution_keeps_original_timestamps(tmp_path, config):
    energy = tmp_path / "energy.csv"
    energy.write_text(
        "utc_timestamp,DE_KN_residential1_pv\n"
        "2016-05-01T10:00:00Z,100.0\n"
        "2016-05-01T11:00:00Z,101.5\n"
    )
    config.resolution = "raw"
    path = cmd_uplift(str(energy), config)
    text = Path(path).read_text()
    assert "2016-05-01T10:00:00Z" in text
    assert "2016-05-01T11:00:00Z" in text
    assert '"100.0"' in text and '"101.5"' in text


def test_uplift_header_only_csv_keeps_network_node(tmp_path, config):
    energy = tmp_path / "energy.csv"
    energy.write_text("utc_timestamp\n")
    path = cmd_uplift(str(energy), config)
    text = Path(path).read_text()
    assert "DE_KN_COSSMIC" in text
    assert "ElectricPowerDistributionNetwork" in text
    assert "retrieveWeatherFrom" in text


def test_uplift_bad_heading_exits_1(tmp_path, capsys):
    energy = tmp_path / "energy.csv"
    energy.write_text("utc_timestamp,bogus\n2016-05-01T00:00:00Z,1\n")
    code = main(["uplift", str(energy), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


# The input repeats a reading: a second row at the same timestamp, or a
# second column for the same device.
_DUPLICATE_RECORDS = [
    ENERGY_CSV + "2016-05-03T22:00:00Z,135.25,60.0\n",
    "utc_timestamp,DE_KN_industrial1_pv_1,DE_KN_industrial1_pv_1\n"
    "2016-04-30T22:00:00Z,100.0,100.0\n",
]


@pytest.mark.parametrize("bad_csv", _DUPLICATE_RECORDS)
def test_failed_uplift_leaves_earlier_output_intact(tmp_path, capsys, bad_csv):
    out = tmp_path / "out"
    good = tmp_path / "good.csv"
    good.write_text(ENERGY_CSV)
    assert main(["uplift", str(good), "--out", str(out)]) == 0
    # The Turtle file and its snapshot sidecar, and nothing else.
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["cossmic.ttl", "cossmic.ttl.ekg"]
    bad = tmp_path / "bad.csv"
    bad.write_text(bad_csv)
    assert main(["uplift", str(bad), "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command", ["uplift", "climate"])
def test_writer_failing_midway_leaves_earlier_output_intact(tmp_path, config, monkeypatch, command):
    source = tmp_path / "input.csv"
    source.write_text(ENERGY_CSV if command == "uplift" else CLIMATE_CSV)
    run = cmd_uplift if command == "uplift" else cmd_climate
    path = Path(run(str(source), config))
    # The Turtle file and its snapshot sidecar, and nothing else.
    before = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    assert sorted(before) == [path.name, path.name + ".ekg"]

    def failing_writer(handle, *args):
        handle.write("@prefix half")
        raise RuntimeError("writer failed")

    monkeypatch.setattr(turtle_writer, "write_turtle", failing_writer)
    with pytest.raises(RuntimeError, match="writer failed"):
        run(str(source), config)
    assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == before


def test_uplift_and_climate_write_without_a_store(tmp_path, config, monkeypatch):
    def refuse(*args):
        raise AssertionError("a writing command inserted into a store")

    monkeypatch.setattr(Dataset, "add_ids", refuse)
    energy = tmp_path / "energy.csv"
    energy.write_text(ENERGY_CSV)
    cossmic = Path(cmd_uplift(str(energy), config))
    climate = Path(cmd_climate(str(GOLDEN / "climate.csv"), config))
    assert cossmic.read_bytes() == (DATA / "cossmic_uplift_golden.ttl").read_bytes()
    assert climate.read_bytes() == (DATA / "climate_golden.ttl").read_bytes()
    assert Path(str(cossmic) + ".ekg").exists() and Path(str(climate) + ".ekg").exists()


@pytest.mark.parametrize("command", ["uplift", "climate"])
def test_out_below_a_regular_file_exits_1(tmp_path, capsys, command):
    source = tmp_path / "input.csv"
    source.write_text(ENERGY_CSV if command == "uplift" else CLIMATE_CSV)
    (tmp_path / "notadir").write_text("")
    out = tmp_path / "notadir" / "sub"
    assert main([command, str(source), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}{os.sep}") and "Traceback" not in err


@pytest.mark.parametrize("enabled", [True, False])
def test_load_store_restores_the_collector_state(tmp_path, config, enabled):
    bad = tmp_path / "bad.ttl"
    bad.write_text("<http://example.org/s> <http://example.org/p> .\n")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(EnergyKgError):
            load_store([str(bad)], config)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_climate_quad_count_for_one_row(tmp_path, config):
    climate = tmp_path / "one.csv"
    climate.write_text("station,date,datatype,value\nGHCND:GME00102404,2016-05-01,TMAX,22.3\n")
    path = cmd_climate(str(climate), config)
    from energykg.turtle import parse_turtle

    triples, _ = parse_turtle(Path(path).read_text())
    assert len(triples) == 6


def test_climate_empty_body_gives_header_only(tmp_path, config):
    climate = tmp_path / "empty.csv"
    climate.write_text("station,date,datatype,value\n")
    path = cmd_climate(str(climate), config)
    text = Path(path).read_text()
    assert "@prefix" in text
    from energykg.turtle import parse_turtle

    triples, _ = parse_turtle(text)
    assert triples == []


def test_climate_json_input(tmp_path, config):
    payload = json.dumps(
        [{"station": "GHCND:GME00102404", "date": "2016-05-01", "datatype": "TMAX", "value": 22.3}]
    )
    source = tmp_path / "obs.json"
    source.write_text(payload)
    path = cmd_climate(str(source), config)
    from energykg.turtle import parse_turtle

    triples, _ = parse_turtle(Path(path).read_text())
    assert len(triples) == 6


def test_climate_malformed_date_exits_1(tmp_path):
    climate = tmp_path / "bad.csv"
    climate.write_text("station,date,datatype,value\nX,05/01/2016,TMAX,1\n")
    assert main(["climate", str(climate), "--out", str(tmp_path / "out")]) == 1


# Each input spells a number outside xsd:decimal's value space, or one
# whose scaled value overflows; each must be a typed error (exit 1), never
# a traceback (exit 2) or a written "NaN"^^xsd:decimal.
_NON_FINITE_INPUTS = [
    ("uplift", "energy.csv", ENERGY_CSV.replace("112.5", "NaN"), [], "non-numeric value 'NaN'"),
    ("uplift", "energy.csv", ENERGY_CSV.replace("112.5", "sNaN"), [], "non-numeric value 'sNaN'"),
    ("uplift", "energy.csv", ENERGY_CSV.replace("57.5", "-Infinity"), [], "'-Infinity'"),
    ("uplift", "energy.csv", ENERGY_CSV.replace("112.5", "NaN"), ["--resolution", "raw"], "'NaN'"),
    (
        "uplift",
        "energy.csv",
        "utc_timestamp,DE_KN_industrial1_pv_1\n"
        "2016-05-01T01:00:00Z,9e999999\n2016-05-01T02:00:00Z,9e999999\n",
        ["--counter-mode", "interval"],
        "a daily value for 'DE_KN_industrial1_pv_1' is out of range",
    ),
    ("climate", "climate.csv", CLIMATE_CSV.replace("25.0", "NaN"), [], "row 3: non-numeric"),
    ("climate", "climate.csv", CLIMATE_CSV.replace("25.0", "inf"), [], "row 3: non-numeric"),
    (
        "climate",
        "climate.json",
        '[{"station": "X", "date": "2016-05-01", "datatype": "TMAX", "value": NaN}]',
        [],
        "item 0: non-numeric",
    ),
    (
        "climate",
        "climate.json",
        '[{"station": "X", "date": "2016-05-01", "datatype": "TMAX", "value": "Infinity"}]',
        [],
        "item 0: non-numeric",
    ),
    ("climate", "climate.csv", CLIMATE_CSV, ["--scale", "1e999999"], "row 2: value '22.3' times"),
    (
        "climate",
        "climate.json",
        '[{"station": "X", "date": "2016-05-01", "datatype": "TMAX", "value": 50}]',
        ["--scale", "1e999999"],
        "item 0: value '50' times scale",
    ),
    ("climate", "climate.csv", CLIMATE_CSV, ["--scale", "NaN"], "scale is not numeric"),
    ("climate", "climate.csv", CLIMATE_CSV, ["--scale=-Infinity"], "scale is not numeric"),
]


@pytest.mark.parametrize(
    "command, name, text, options, message",
    _NON_FINITE_INPUTS,
    ids=[
        "uplift_nan", "uplift_snan", "uplift_infinity", "uplift_raw_nan", "uplift_daily_overflow",
        "climate_csv_nan",
        "climate_csv_inf", "climate_json_nan", "climate_json_infinity", "climate_csv_overflow",
        "climate_json_overflow", "scale_nan", "scale_infinity",
    ],
)
def test_non_finite_or_overflowing_number_exits_1(
    tmp_path, capsys, command, name, text, options, message
):
    source = tmp_path / name
    source.write_text(text)
    out = tmp_path / "out"
    assert main([command, str(source), "--out", str(out), *options]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() or list(out.iterdir()) == []


# Each input holds a finite number whose plain decimal form would be
# longer than MAX_DECIMAL_CHARS (100) characters: a typed error (exit 1)
# that names where the number came from, not a Turtle file that grows
# with the exponent.
_TOO_LONG_INPUTS = [
    (
        "uplift",
        "energy.csv",
        "utc_timestamp,DE_KN_industrial1_pv_1\n2016-05-01T01:00:00Z,1\n"
        "2016-05-02T01:00:00Z,9e999999\n2016-05-03T01:00:00Z,-9e999999\n",
        ["--counter-mode", "interval"],
        # The day's sum, 0 + 9e999999, keeps the 100 digits of the daily
        # arithmetic's precision, all but the first of them zeros.
        "column 'DE_KN_industrial1_pv_1' at 2016-05-02T00:00:00+00:00: value "
        "9." + "0" * 99 + "E+999999 would be written with 1000000 characters, more than 100",
    ),
    (
        "uplift",
        "energy.csv",
        "utc_timestamp,DE_KN_industrial1_pv_1\n2016-05-01T01:00:00Z,1e99\n"
        "2016-05-01T02:00:00Z,1e-5\n",
        ["--counter-mode", "interval"],
        # The exact sum has 105 significant digits.
        "a daily value for 'DE_KN_industrial1_pv_1' has more than 100 significant digits",
    ),
    (
        "uplift",
        "energy.csv",
        ENERGY_CSV.replace("112.5", "1e200"),
        ["--resolution", "raw"],
        "column 'DE_KN_industrial1_pv_1' at 2016-05-01T22:00:00+00:00: value 1E+200 "
        "would be written with 201 characters",
    ),
    (
        "uplift",
        "energy.csv",
        ENERGY_CSV.replace("112.5", "-0.1e-98"),
        ["--resolution", "raw"],
        "value -1E-99 would be written with 102 characters",
    ),
    ("climate", "climate.csv", CLIMATE_CSV.replace("25.0", "1e100"), [], "row 3: value 1E+100"),
    (
        "climate",
        "climate.json",
        '[{"station": "X", "date": "2016-05-01", "datatype": "TMAX", "value": "2e50"}]',
        ["--scale", "1e50"],
        "item 0: value 2E+100 would be written with 101 characters",
    ),
]


@pytest.mark.parametrize(
    "command, name, text, options, message",
    _TOO_LONG_INPUTS,
    ids=[
        "uplift_interval", "uplift_interval_inexact", "uplift_raw", "uplift_raw_small",
        "climate_csv", "climate_json",
    ],
)
def test_number_too_long_to_write_exits_1(tmp_path, capsys, command, name, text, options, message):
    source = tmp_path / name
    source.write_text(text)
    out = tmp_path / "out"
    assert main([command, str(source), "--out", str(out), *options]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "mode, readings",
    [
        ("interval", ("1234567890.12345678901234567890", "1")),
        ("cumulative", ("1", "1234567892.12345678901234567890")),
    ],
)
def test_daily_values_keep_every_digit(tmp_path, mode, readings):
    # Both sum or difference to a 30-digit value on 2016-05-02.
    energy = tmp_path / "energy.csv"
    first, second = readings
    energy.write_text(
        "utc_timestamp,DE_KN_industrial1_pv_1\n"
        f"2016-05-01T12:00:00Z,{first}\n2016-05-02T12:00:00Z,{second}\n"
        if mode == "cumulative"
        else "utc_timestamp,DE_KN_industrial1_pv_1\n"
        f"2016-05-02T01:00:00Z,{first}\n2016-05-02T02:00:00Z,{second}\n"
    )
    out = tmp_path / "out"
    assert main(["uplift", str(energy), "--out", str(out), "--counter-mode", mode]) == 0
    text = (out / "cossmic.ttl").read_text()
    assert '"1234567891.12345678901234567890"^^xsd:decimal' in text


def test_number_of_the_longest_writable_form_is_written(tmp_path):
    # 1e99 and -1e-97 are written with exactly 100 characters.
    energy = tmp_path / "energy.csv"
    energy.write_text(ENERGY_CSV.replace("112.5", "1e99").replace("53.0", "-1e-97"))
    out = tmp_path / "out"
    assert main(["uplift", str(energy), "--out", str(out), "--resolution", "raw"]) == 0
    text = (out / "cossmic.ttl").read_text()
    assert '"1' + "0" * 99 + '"^^xsd:decimal' in text
    assert '"-0.' + "0" * 96 + '1"^^xsd:decimal' in text


def test_query_tsv_three_rows(store_files, config):
    output = cmd_query(store_files, str(DATA / "energy_tmax_join.rq"), config)
    lines = output.strip().split("\n")
    assert lines[0] == "?eval\t?val\t?maxTprt\t?date"
    assert len(lines) == 4


def test_query_json_format(store_files, config):
    config.format = "json"
    output = cmd_query(store_files, str(DATA / "energy_tmax_join.rq"), config)
    payload = json.loads(output)
    assert payload["head"]["vars"] == ["eval", "val", "maxTprt", "date"]
    assert len(payload["results"]["bindings"]) == 3


def test_query_inline_text(store_files, config):
    output = cmd_query(store_files, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1", config)
    assert output.startswith("?s\n")


def test_query_missing_file_exits_1(tmp_path):
    assert main(["query", str(tmp_path / "nope.ttl"), "SELECT ?s WHERE { ?s ?p ?o }"]) == 1


_BROKEN_STORE = "<http://example.org/s> <http://example.org/p> .\n"
_BROKEN_STORE_ERROR = "line 1, column 47: invalid object '.'"


def test_query_naming_no_file_that_does_not_parse_says_both(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("store.ttl").write_text(_BROKEN_STORE)
    assert main(["query", "store.ttl", "missing.rq"]) == 1
    assert capsys.readouterr().err == (
        "error: no file named 'missing.rq', and as query text: line 1, column 1: expected SELECT\n"
    )


def test_query_is_parsed_before_the_store_is_loaded(tmp_path, capsys, monkeypatch):
    store = tmp_path / "store.ttl"
    store.write_text(_BROKEN_STORE)
    query = tmp_path / "query.rq"
    query.write_text("SELECT ?s WHERE { ?s ?p }")
    loads = []
    monkeypatch.setattr(cli, "load_store", lambda *args: loads.append(args))
    assert main(["query", str(store), str(query)]) == 1
    assert capsys.readouterr().err == "error: line 1, column 25: unexpected term '}'\n"
    assert loads == []
    # A query that parses leaves the store's own error to report.
    monkeypatch.undo()
    assert main(["query", str(store), "SELECT ?s WHERE { ?s ?p ?o }"]) == 1
    assert capsys.readouterr().err == f"error: {_BROKEN_STORE_ERROR}\n"


@pytest.mark.parametrize("command", ["query", "serve", "analyze"])
def test_every_store_file_is_opened_before_any_is_parsed(tmp_path, capsys, command):
    broken = tmp_path / "broken.ttl"
    broken.write_text(_BROKEN_STORE)
    missing = str(tmp_path / "missing.ttl")
    stores = [str(broken), missing]
    argv = {
        "query": ["query", *stores, "SELECT ?s WHERE { ?s ?p ?o }"],
        "serve": ["serve", *stores, "--bind", "127.0.0.1:0"],
        "analyze": ["analyze", *stores, "--out", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: [Errno 2] No such file or directory: {missing!r}\n"
    )


def test_query_store_with_non_ascii_digit_exits_1(tmp_path, capsys):
    # "\u0663" (ARABIC-INDIC DIGIT THREE) is a digit to str.isdigit but not
    # a Turtle number; it once crashed the lexer with an AssertionError.
    store = tmp_path / "store.ttl"
    store.write_text("@prefix : <http://example.org/> .\n:s :p \u0663 .\n", encoding="utf-8")
    assert main(["query", str(store), "SELECT ?s WHERE { ?s ?p ?o }"]) == 1
    assert capsys.readouterr().err == "error: line 2, column 7: unexpected character '\u0663'\n"


@pytest.mark.parametrize("which", ["store", "query", "csv", "json", "config"])
def test_non_utf8_input_exits_1_naming_path_and_offset(tmp_path, capsys, which):
    store = tmp_path / "store.ttl"
    store.write_text("<http://example.org/s> <http://example.org/p> 1 .\n", encoding="utf-8")
    query = "SELECT ?s WHERE { ?s ?p ?o }"
    bad = tmp_path / f"bad.{which}"
    bad.write_bytes(b"ok\n\xff\n")
    out = str(tmp_path / "out")
    argv = {
        "store": ["query", str(bad), query],
        "query": ["query", str(store), str(bad)],
        "csv": ["uplift", str(bad), "--out", out],
        "json": ["climate", str(bad), "--out", out],
        "config": ["query", str(store), query, "--config", str(bad)],
    }[which]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and err.endswith(f"{bad}: not UTF-8 at byte 3\n")


def test_analyze_store_without_evaluations_exits_1(tmp_path, capsys):
    climate = tmp_path / "climate.csv"
    climate.write_text(CLIMATE_CSV)
    config = load_config(cli_overrides={"out": str(tmp_path)})
    store = cmd_climate(str(climate), config)
    assert main(["analyze", store, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: store contains no device evaluations\n"


def test_cli_query_equals_http_body(store_files, config, join_query_text):
    config.format = "json"
    cli_output = cmd_query(store_files, join_query_text, config)
    ds = load_store(store_files, config)
    with EndpointServer(EndpointConfig(port=0), ds) as server:
        host, port = server.address
        url = f"http://{host}:{port}/sparql?query=" + urllib.parse.quote(join_query_text)
        with urllib.request.urlopen(url) as response:
            body = response.read()
    assert body == cli_output.encode()


def test_analyze_outputs(store_files, config):
    written = cmd_analyze(store_files, config)
    names = {Path(p).name for p in written}
    assert {"report.tsv", "report.json"} <= names
    assert {"scatter_pv.csv", "scatter_grid_import.csv"} <= names
    report = json.loads(Path([p for p in written if p.endswith("report.json")][0]).read_text())
    assert report["threshold"] == 0.7
    assert report["climate_code"] == "TMAX"
    entries = {e["device"]: e for e in report["entries"]}
    assert "DE_KN_industrial1_pv_1" in entries
    scatter = Path([p for p in written if p.endswith("scatter_pv.csv")][0]).read_text()
    assert scatter.splitlines()[0] == "device,date,energy_kwh,TMAX,prcp"
    assert scatter.count("\n") == 4


def test_analyze_rerun_is_byte_identical(store_files, config):
    first = {p: Path(p).read_bytes() for p in cmd_analyze(store_files, config)}
    second = {p: Path(p).read_bytes() for p in cmd_analyze(store_files, config)}
    assert first == second


GOLDEN = DATA / "analyze_golden"


def test_analyze_matches_golden_files(tmp_path):
    """Seeded daily counters for seven devices, committed with the outputs.

    The input plants a pv device at exactly 0.5 * TMAX + 20, a noisy pv
    device, a heat pump at 40 - TMAX plus noise, a noisy freezer, a
    constant dishwasher (zero variance), a washing machine with one daily
    value and a grid import whose days all lack TMAX (no joined day).
    PRCP is missing on four days, so some scatter rows end in an empty
    cell.
    """
    _assert_analyze_matches_golden_files(tmp_path, sidecars=True)


def test_analyze_without_sidecars_matches_golden_files(tmp_path):
    # The same store parsed from its Turtle files.
    _assert_analyze_matches_golden_files(tmp_path, sidecars=False)


def _assert_analyze_matches_golden_files(tmp_path, sidecars):
    config = load_config(cli_overrides={"out": str(tmp_path)})
    stores = [
        cmd_uplift(str(GOLDEN / "energy.csv"), config),
        cmd_climate(str(GOLDEN / "climate.csv"), config),
    ]
    if not sidecars:
        for store in stores:
            os.remove(store + ".ekg")
    written = {Path(p).name: Path(p).read_bytes() for p in cmd_analyze(stores, config)}
    expected = {p.name: p.read_bytes() for p in (GOLDEN / "expected").iterdir()}
    assert sorted(written) == sorted(expected)
    for name, body in expected.items():
        assert written[name] == body, name


def test_climate_matches_golden_file(tmp_path):
    config = load_config(cli_overrides={"out": str(tmp_path)})
    path = cmd_climate(str(GOLDEN / "climate.csv"), config)
    assert Path(path).read_bytes() == (DATA / "climate_golden.ttl").read_bytes()


def test_analyze_raw_resolution_store_is_an_error(tmp_path):
    energy = tmp_path / "energy.csv"
    energy.write_text(
        "utc_timestamp,DE_KN_industrial1_pv_1\n"
        "2016-05-01T10:00:00Z,100.0\n"
        "2016-05-01T16:00:00Z,104.5\n"
        "2016-05-02T10:00:00Z,110.0\n"
    )
    climate = tmp_path / "climate.csv"
    climate.write_text(CLIMATE_CSV)
    config = load_config(cli_overrides={"out": str(tmp_path), "resolution": "raw"})
    stores = [cmd_uplift(str(energy), config), cmd_climate(str(climate), config)]
    with pytest.raises(AnalysisError, match="daily resolution"):
        cmd_analyze(stores, config)


def test_threshold_out_of_range_exits_1(store_files, tmp_path):
    code = main(["analyze", *store_files, "--threshold", "1.01", "--out", str(tmp_path / "o")])
    assert code == 1


def test_config_precedence(tmp_path, monkeypatch):
    config_file = tmp_path / "pipeline.conf"
    config_file.write_text("threshold=0.5\nstation=FILE_STATION\n# comment\n")
    monkeypatch.setenv("HECP_STATION", "ENV_STATION")
    config = load_config(str(config_file), cli_overrides={"threshold": 0.9})
    assert config.threshold == 0.9  # CLI beats file
    assert config.station == "ENV_STATION"  # env beats file


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        PipelineConfig(base="not-an-iri").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(threshold=2.0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(bind="nohost").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(counter_mode="sideways").validate()


# Values that analyze used to paste into its queries unchecked.
_QUERY_BREAKING = [
    ("--datatype", "TMAX> . ?obsv a <ca/class/Observation"),
    ("--datatype", "TMAX> . ?x ?y <resource/datatype/TMAX"),
    ("--datatype", "TMAX>"),
    ("--station", "GHCND:GME00102404> . ?x ?y <z"),
    ("--station", "GHCND:GME00102404>"),
]


@pytest.mark.parametrize("option, value", _QUERY_BREAKING)
def test_setting_that_mints_no_iri_exits_1_before_any_file_is_opened(
    tmp_path, capsys, option, value
):
    missing = [str(tmp_path / "missing.ttl"), str(tmp_path / "missing2.ttl")]
    code = main(["analyze", *missing, option, value, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option[2:]}: IRI contains forbidden character"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option, value", _QUERY_BREAKING)
def test_setting_that_mints_no_iri_is_a_config_error(option, value):
    with pytest.raises(ConfigError, match=f"^{option[2:]}: "):
        PipelineConfig(**{option[2:]: value}).validate()


def test_bind_conflict_exits_1(store_files, tmp_path):
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    try:
        code = main(["serve", *store_files, "--bind", f"127.0.0.1:{port}"])
        assert code == 1
    finally:
        sock.close()


def test_served_store_answers_health(store_files, config):
    ds = load_store(store_files, config)
    with EndpointServer(EndpointConfig(port=0), ds) as server:
        host, port = server.address
        with urllib.request.urlopen(f"http://{host}:{port}/health") as response:
            assert response.read() == b"ok"


# Prints the modules a CLI run leaves loaded, one per line, to the file
# named by its first argument.
_IMPORT_PROBE = """
import sys
from energykg.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as handle:
    handle.write("\\n".join(sys.modules))
sys.exit(code)
"""

_HEAVY = ("http.server", "energykg.endpoint", "energykg.sparql", "energykg.analysis")
# No module builds dataclasses, and only a failing run prints a traceback.
# Snapshot sidecars are hashed with importlib.util.source_hash, since
# hashlib would load OpenSSL.
_START_UP = ("dataclasses", "inspect", "traceback", "hashlib")
# Only a store file without a sidecar that checks out is parsed as Turtle.
_PARSER = "energykg.turtle"
_WRITER = "energykg.turtle_writer"


@pytest.mark.parametrize(
    "command, unloaded",
    [
        (
            "--help",
            (*_HEAVY, "energykg.uplift", "energykg.snapshot", _PARSER, _WRITER, *_START_UP),
        ),
        # The station link is minted without the climate module and its json.
        ("uplift", (*_HEAVY, _PARSER, "energykg.climate", "json", *_START_UP)),
        ("climate", (*_HEAVY, _PARSER, *_START_UP)),
        # Every store file is loaded from its sidecar.
        (
            "query",
            ("http.server", "energykg.endpoint", "energykg.analysis", _PARSER, _WRITER, *_START_UP),
        ),
        ("analyze", ("http.server", "energykg.endpoint", _PARSER, _WRITER, *_START_UP)),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, store_files, command, unloaded):
    # store_files wrote these two inputs into tmp_path.
    energy = tmp_path / "energy.csv"
    climate = tmp_path / "climate.csv"
    out = str(tmp_path / "probe")
    args = {
        "--help": ["--help"],
        "uplift": ["uplift", str(energy), "--out", out],
        "climate": ["climate", str(climate), "--out", out],
        "query": ["query", *store_files, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"],
        "analyze": ["analyze", *store_files, "--out", out],
    }[command]
    loaded, _ = _run_probe(tmp_path, args)
    assert "energykg.cli" in loaded
    assert sorted(loaded.intersection(unloaded)) == []


def test_query_without_sidecars_loads_the_parser_and_answers_the_same(tmp_path, store_files):
    args = ["query", *store_files, (DATA / "energy_tmax_join.rq").read_text(), "--format", "json"]
    loaded, through_sidecars = _run_probe(tmp_path, args)
    assert _PARSER not in loaded
    for store in store_files:
        os.remove(store + ".ekg")
    loaded, parsed = _run_probe(tmp_path, args)
    assert _PARSER in loaded
    assert len(json.loads(parsed)["results"]["bindings"]) == 3
    assert parsed == through_sidecars


def _run_probe(tmp_path: Path, args: list[str]) -> tuple[set[str], str]:
    """The modules a CLI process with the arguments leaves loaded, and its output."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    listing = tmp_path / "modules.txt"
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(listing), *args],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return set(listing.read_text().split("\n")), run.stdout

import json
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from energykg.analysis import AnalysisError
from energykg.cli import cmd_analyze, cmd_climate, cmd_query, cmd_uplift, load_store, main
from energykg.config import ConfigError, PipelineConfig, load_config
from energykg.endpoint import EndpointConfig, EndpointServer

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
    config = load_config(cli_overrides={"out": str(tmp_path)})
    stores = [
        cmd_uplift(str(GOLDEN / "energy.csv"), config),
        cmd_climate(str(GOLDEN / "climate.csv"), config),
    ]
    written = {Path(p).name: Path(p).read_bytes() for p in cmd_analyze(stores, config)}
    expected = {p.name: p.read_bytes() for p in (GOLDEN / "expected").iterdir()}
    assert sorted(written) == sorted(expected)
    for name, body in expected.items():
        assert written[name] == body, name


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

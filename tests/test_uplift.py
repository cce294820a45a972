from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import pytest

from energykg.dataset import ANY, Dataset
from energykg.headings import parse_heading
from energykg.namespaces import DEFAULT_BASE, PROV, QUDT, RDF_TYPE, SEAS, cossmic_graph
from energykg.terms import Iri, Literal, XSD_DATETIME, XSD_DECIMAL
from energykg.turtle import parse_turtle
from energykg.uplift import (
    CounterMode,
    EnergyTable,
    UpliftError,
    evaluation_quads,
    mint_device_iri,
    read_energy_csv,
    to_daily,
    topology_quads,
)

DATA = Path(__file__).parent / "data"
GRAPH = cossmic_graph()


def ts(day, hour=0, month=5):
    return datetime(2016, month, day, hour, tzinfo=timezone.utc)


def test_mint_device_iri_follows_resource_scheme():
    pv = parse_heading("DE_KN_industrial1_pv_1")
    assert mint_device_iri(pv) == Iri(
        "http://jresearch.ucd.ie/climate-kg/resource/cossmic/DE_KN_industrial1_pv_1"
    )


def test_mint_site_iri():
    h = parse_heading("DE_KN_residential4_pv")
    assert h.site_name == "DE_KN_residential4"
    assert mint_device_iri(parse_heading("DE_KN_residential4_grid_import")).value.endswith(
        "resource/cossmic/DE_KN_residential4_grid_import"
    )


def test_topology_matches_golden_fixture():
    headings = [
        parse_heading("DE_KN_residential1_pv"),
        parse_heading("DE_KN_residential1_washing_machine"),
        parse_heading("DE_KN_residential1_grid_import"),
    ]
    quads = topology_quads(headings)
    golden, _ = parse_turtle((DATA / "cossmic_topology_golden.ttl").read_text())
    assert {(q.subject, q.predicate, q.object) for q in quads} == set(golden)
    assert all(q.graph == GRAPH for q in quads)


def test_topology_is_order_invariant():
    headings = [
        parse_heading("DE_KN_residential1_pv"),
        parse_heading("DE_KN_residential1_washing_machine"),
        parse_heading("DE_KN_residential1_grid_import"),
    ]
    assert topology_quads(headings) == topology_quads(list(reversed(headings)))


def test_single_producer_emits_six_quads():
    quads = topology_quads([parse_heading("DE_KN_residential1_pv")])
    assert len(quads) == 6
    ds = Dataset(quads)
    grid = Iri(DEFAULT_BASE.value + "resource/cossmic/DE_KN_grid")
    pv = Iri(DEFAULT_BASE.value + "resource/cossmic/DE_KN_residential1_pv")
    assert ds.match(grid, SEAS.isPoweredBy, pv, GRAPH)


def test_industrial_sites_get_building_class():
    quads = topology_quads([parse_heading("DE_KN_industrial1_pv_1")])
    site = Iri(DEFAULT_BASE.value + "resource/cossmic/DE_KN_industrial1")
    assert Dataset(quads).match(site, RDF_TYPE, SEAS.IndustrialBuilding, GRAPH)


def test_export_only_site_keeps_network_and_site_quads_only():
    quads = topology_quads([parse_heading("DE_KN_residential3_grid_export")])
    assert len(quads) == 3  # network type, site type, site subSystemOf


def test_mixed_cities_rejected():
    with pytest.raises(UpliftError):
        topology_quads(
            [parse_heading("DE_KN_residential1_pv"), parse_heading("DE_XX_residential1_pv")]
        )


def test_evaluation_quads_shape():
    pv = parse_heading("DE_KN_industrial1_pv_1")
    quads = evaluation_quads(EnergyTable([ts(1)], {pv.raw: [Decimal("12.5")]}))
    assert len(quads) == 5
    ds = Dataset(quads)
    device = mint_device_iri(pv)
    (eval_quad,) = ds.match(device, SEAS.evaluation, ANY, GRAPH)
    evaluation = eval_quad.object
    assert ds.match(evaluation, RDF_TYPE, SEAS.ElectricPowerEvaluation, GRAPH)
    (time_quad,) = ds.match(evaluation, PROV.generatedAtTime, ANY, GRAPH)
    assert time_quad.object == Literal("2016-05-01T00:00:00Z", XSD_DATETIME)
    (value_quad,) = ds.match(evaluation, SEAS.evaluatedValue, ANY, GRAPH)
    (number_quad,) = ds.match(value_quad.object, QUDT.numericalValue, ANY, GRAPH)
    assert number_quad.object == Literal("12.5", XSD_DECIMAL)


def test_evaluation_quads_empty_input():
    assert evaluation_quads(EnergyTable([], {})) == set()
    # A column without values mints nothing.
    assert evaluation_quads(EnergyTable([ts(1)], {"DE_KN_industrial1_pv_1": [None]})) == set()


def test_three_records_three_timestamps():
    pv = parse_heading("DE_KN_industrial1_pv_1")
    table = EnergyTable([ts(1), ts(2), ts(3)], {pv.raw: [Decimal(1), Decimal(2), Decimal(3)]})
    ds = Dataset(evaluation_quads(table))
    assert len(ds.match(ANY, PROV.generatedAtTime, ANY, GRAPH)) == 3


def test_duplicate_record_error_lists_duplicates():
    # A table that repeats a timestamp under which a column has two values.
    table = EnergyTable(
        [ts(1), ts(1), ts(2), ts(2)],
        {
            "DE_KN_industrial1_pv_1": [Decimal(1), Decimal(2), Decimal(3), None],
            "DE_KN_residential1_freezer": [None, Decimal(1), Decimal(2), Decimal(3)],
        },
    )
    with pytest.raises(UpliftError) as excinfo:
        evaluation_quads(table)
    assert str(excinfo.value) == (
        "duplicate (device, timestamp) records: "
        "DE_KN_industrial1_pv_1@2016-05-01T00:00:00+00:00, "
        "DE_KN_residential1_freezer@2016-05-02T00:00:00+00:00"
    )


def test_to_daily_cumulative_differences():
    table = EnergyTable(
        [ts(1, 23), ts(2, 23)],
        {"DE_KN_residential1_pv": [Decimal("10.0"), Decimal("14.5")]},
        CounterMode.CUMULATIVE,
    )
    daily = to_daily(table)
    assert daily.timestamps == [ts(2)]
    assert daily.columns["DE_KN_residential1_pv"] == [Decimal("4.5")]


def test_to_daily_interval_sums():
    table = EnergyTable(
        [ts(1, h) for h in range(24)],
        {"DE_KN_residential1_pv": [Decimal("1.0")] * 24},
        CounterMode.INTERVAL,
    )
    daily = to_daily(table)
    assert daily.columns["DE_KN_residential1_pv"] == [Decimal("24.0")]


def test_to_daily_skips_gap_days():
    table = EnergyTable(
        [ts(1, 23), ts(2, 23), ts(4, 23)],
        {"DE_KN_residential1_pv": [Decimal(10), Decimal(12), Decimal(20)]},
        CounterMode.CUMULATIVE,
    )
    daily = to_daily(table)
    # Day 4 has no day-3 reading, day 1 has no day-0 reading.
    assert daily.timestamps == [ts(2)]


def test_to_daily_counter_reset_is_an_error():
    table = EnergyTable(
        [ts(1, 1), ts(1, 2)],
        {"DE_KN_residential1_pv": [Decimal(10), Decimal(9)]},
        CounterMode.CUMULATIVE,
    )
    with pytest.raises(UpliftError) as excinfo:
        to_daily(table)
    assert "DE_KN_residential1_pv" in str(excinfo.value)
    assert "2016-05-01" in str(excinfo.value)


def test_to_daily_telescoping_sum_without_gaps():
    values = [Decimal(v) for v in (5, 7, 9, 14, 20)]
    table = EnergyTable(
        [ts(d, 22) for d in range(1, 6)],
        {"DE_KN_residential1_pv": values},
        CounterMode.CUMULATIVE,
    )
    daily = to_daily(table)
    emitted = [v for v in daily.columns["DE_KN_residential1_pv"] if v is not None]
    assert sum(emitted) == values[-1] - values[0]


def test_to_daily_columns_missing_different_cells_keep_their_own_days():
    table = EnergyTable(
        [ts(d, 23) for d in range(1, 5)],
        {
            "DE_KN_residential1_pv": [Decimal(10), None, Decimal(14), Decimal(20)],
            "DE_KN_residential1_freezer": [Decimal(1), Decimal(2), None, Decimal(4)],
        },
        CounterMode.CUMULATIVE,
    )
    daily = to_daily(table)
    # pv has no day-2 reading, so only day 4 follows a reading; the
    # freezer has no day-3 reading, so only day 2 does.
    assert daily.timestamps == [ts(2), ts(4)]
    assert daily.columns["DE_KN_residential1_pv"] == [None, Decimal(6)]
    assert daily.columns["DE_KN_residential1_freezer"] == [Decimal(1), None]


def test_read_energy_csv_missing_cells_stay_missing():
    text = (
        "utc_timestamp,DE_KN_residential1_pv,DE_KN_residential1_freezer\n"
        "2016-05-01T00:00:00Z,1.5,\n"
        "2016-05-01T01:00:00Z,,0.25\n"
    )
    table = read_energy_csv(text)
    assert table.columns["DE_KN_residential1_pv"] == [Decimal("1.5"), None]
    assert table.columns["DE_KN_residential1_freezer"] == [None, Decimal("0.25")]
    assert len(evaluation_quads(table)) == 10


def test_read_energy_csv_rejects_unsorted_timestamps():
    text = (
        "utc_timestamp,DE_KN_residential1_pv\n"
        "2016-05-01T01:00:00Z,1\n"
        "2016-05-01T00:00:00Z,2\n"
    )
    with pytest.raises(UpliftError):
        read_energy_csv(text)


def test_read_energy_csv_rejects_bad_heading():
    with pytest.raises(Exception):
        read_energy_csv("utc_timestamp,not_a_heading\n")


def test_read_energy_csv_skips_upstream_helper_columns():
    text = (
        "utc_timestamp,cet_cest_timestamp,DE_KN_residential1_pv,interpolated\n"
        "2016-05-01T00:00:00Z,2016-05-01T02:00:00,3.5,\n"
    )
    table = read_energy_csv(text)
    assert list(table.columns) == ["DE_KN_residential1_pv"]


def test_read_energy_csv_rejects_a_repeated_heading_before_reading_rows():
    text = (
        "utc_timestamp,DE_KN_residential1_pv,DE_KN_residential1_freezer,DE_KN_residential1_pv\n"
        "not a row\n"
    )
    with pytest.raises(UpliftError, match="repeats heading 'DE_KN_residential1_pv'"):
        read_energy_csv(text)


@pytest.mark.parametrize("cell", ["\u0661", "\u0662.5", "1_0", "\uff11", "NaN", "-Infinity"])
def test_read_energy_csv_accepts_only_ascii_number_spellings(cell):
    text = f"utc_timestamp,DE_KN_residential1_pv\n2016-05-01T00:00:00Z,{cell}\n"
    with pytest.raises(UpliftError) as excinfo:
        read_energy_csv(text)
    assert str(excinfo.value) == (
        f"row 2: column 'DE_KN_residential1_pv' has non-numeric value {cell!r}"
    )


@pytest.mark.parametrize("cell", ["1", "-2.50", "+.5", "5.", "1e3", "7E-2", " 3 "])
def test_read_energy_csv_reads_ascii_number_spellings(cell):
    text = f"utc_timestamp,DE_KN_residential1_pv\n2016-05-01T00:00:00Z,{cell}\n"
    (value,) = read_energy_csv(text).columns["DE_KN_residential1_pv"]
    assert value == Decimal(cell) and str(value) == str(Decimal(cell))


def test_read_energy_csv_names_the_first_failing_cell_of_the_first_failing_row():
    text = (
        "utc_timestamp,DE_KN_residential1_pv,DE_KN_residential1_freezer\n"
        "2016-05-01T00:00:00Z,1,2\n"
        "\n"
        "2016-05-01T01:00:00Z,3,x\n"
        "2016-05-01T02:00:00Z,y,4\n"
        "2016-05-01T01:30:00Z,5\n"
    )
    with pytest.raises(UpliftError, match=r"^row 4: column 'DE_KN_residential1_freezer' has "):
        read_energy_csv(text)

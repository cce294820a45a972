import math
import random
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energykg.analysis import (
    AlignedSeries,
    AnalysisError,
    CategoryKind,
    UndefinedCorrelationError,
    align,
    categorize,
    correlation_table,
    pcc,
    scatter_export,
)
from energykg.headings import parse_heading
from energykg.namespaces import DEFAULT_BASE, device_resource, station_resource
import conftest


def oracle_pcc(x, y):
    """Direct formula evaluation with plain loops; the reference."""
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = sum((a - mean_x) ** 2 for a in x)
    syy = sum((b - mean_y) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


# -- pcc ----------------------------------------------------------------------


def test_pcc_exact_positive_linearity():
    assert pcc([1, 2, 3], [2, 4, 6]) == 1.0


def test_pcc_exact_negative_linearity():
    assert pcc([1, 2, 3], [3, 2, 1]) == -1.0


def test_pcc_known_value():
    # Frozen from the direct-formula oracle: 4.0 / sqrt(5 * 5).
    assert abs(pcc([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-15


def test_pcc_input_validation():
    with pytest.raises(AnalysisError):
        pcc([1, 2], [1, 2, 3])
    with pytest.raises(AnalysisError):
        pcc([1], [1])
    with pytest.raises(UndefinedCorrelationError):
        pcc([1, 1, 1], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        pcc([1, 2, 3], [5, 5, 5])


def test_pcc_matches_oracle_on_random_vectors():
    rnd = random.Random(42)
    for _ in range(300):
        n = rnd.randint(2, 200)
        x = [rnd.uniform(-50, 50) for _ in range(n)]
        y = [rnd.uniform(-50, 50) for _ in range(n)]
        try:
            expected = oracle_pcc(x, y)
        except (ZeroDivisionError, ValueError):
            continue
        assert abs(pcc(x, y) - expected) < 1e-12


def test_pcc_symmetry():
    rnd = random.Random(1)
    for _ in range(50):
        n = rnd.randint(2, 60)
        x = [rnd.uniform(-5, 5) for _ in range(n)]
        y = [rnd.uniform(-5, 5) for _ in range(n)]
        try:
            assert pcc(x, y) == pcc(y, x)
        except UndefinedCorrelationError:
            pass


# Eighths are exact in binary, so a*x + b cannot silently absorb the
# signal the way a denormal-spread vector shifted by O(1) would.
_eighths = st.integers(min_value=-800, max_value=800).map(lambda n: n / 8)


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(st.tuples(_eighths, _eighths), min_size=3, max_size=60),
    a=st.integers(min_value=1, max_value=320).map(lambda n: n / 8),
    b=st.integers(min_value=-80, max_value=80).map(lambda n: n / 8),
)
def test_pcc_scale_and_shift_invariance(data, a, b):
    x = [p[0] for p in data]
    y = [p[1] for p in data]
    try:
        base_value = pcc(x, y)
    except UndefinedCorrelationError:
        return
    try:
        scaled = pcc([a * v + b for v in x], y)
        flipped = pcc([-a * v + b for v in x], y)
    except UndefinedCorrelationError:
        return
    assert abs(scaled - base_value) < 1e-9
    assert abs(flipped + base_value) < 1e-9


# -- categorize ---------------------------------------------------------------


@pytest.mark.parametrize(
    "heading,kind,label",
    [
        ("DE_KN_industrial3_pv_roof", CategoryKind.PV, None),
        ("DE_KN_industrial1_pv_1", CategoryKind.PV, None),
        ("DE_KN_residential1_freezer", CategoryKind.REFRIGERATOR_FREEZER, None),
        ("DE_KN_residential5_refrigerator", CategoryKind.REFRIGERATOR_FREEZER, None),
        ("DE_KN_residential4_grid_import", CategoryKind.GRID_IMPORT, None),
        ("DE_KN_residential4_grid_export", CategoryKind.GRID_EXPORT, None),
        ("DE_KN_residential1_heat_pump", CategoryKind.HEAT_PUMP, None),
        ("DE_KN_residential2_circulation_pump", CategoryKind.CIRCULATION_PUMP, None),
        ("DE_KN_residential1_dishwasher", CategoryKind.OTHER, "dishwasher"),
        ("DE_KN_industrial3_cooling_pumps", CategoryKind.OTHER, "cooling_pumps"),
    ],
)
def test_categorize(heading, kind, label):
    # label: the device's own name, for a device of no named kind.
    parsed = parse_heading(heading)
    assert categorize(parsed) is kind
    assert (kind is CategoryKind.OTHER) == (label is not None)
    if label is not None:
        assert "_".join(parsed.device_segments) == label


def test_categorize_total_over_corpus(cossmic_columns):
    for column in cossmic_columns:
        categorize(parse_heading(column))


# -- align --------------------------------------------------------------------

STATION = station_resource(DEFAULT_BASE, conftest.STATION_ID)
PV_IRI = device_resource(DEFAULT_BASE, conftest.PV_DEVICE)


def test_align_three_days(three_day_store):
    [series] = align(three_day_store, [PV_IRI], "TMAX", STATION)
    assert series.device.raw == conftest.PV_DEVICE
    assert [str(v) for _, v, _ in series.pairs] == ["12.5", "13.0", "9.75"]
    assert [str(v) for _, _, v in series.pairs] == ["22.3", "25.0", "18.1"]
    assert [d for d, _, _ in series.pairs] == [date(2016, 5, 1), date(2016, 5, 2), date(2016, 5, 3)]


def test_align_one_query_serves_every_device_in_order(three_day_store, monkeypatch):
    import energykg.analysis as analysis

    queries = []
    solve = analysis.solve

    def counting_solve(ds, query):
        queries.append(query)
        return solve(ds, query)

    monkeypatch.setattr(analysis, "solve", counting_solve)
    grid_name = "DE_KN_industrial1_grid_import"
    grid = device_resource(DEFAULT_BASE, grid_name)
    aligned = align(three_day_store, [grid, PV_IRI], "TMAX", STATION, auxiliary=("PRCP",))
    assert [series.device.raw for series in aligned] == [grid_name, conftest.PV_DEVICE]
    assert aligned[0].pairs == ()
    assert aligned[0].auxiliary == {"PRCP": ()}
    assert len(aligned[1].pairs) == 3
    # The day join plus the PRCP series, whatever the number of devices.
    assert len(queries) == 2


def test_align_inner_join_drops_uncovered_days(three_day_store):
    # PRCP exists for all three days, but a nonexistent code joins nothing.
    [series] = align(three_day_store, [PV_IRI], "SNOW", STATION)
    assert series.pairs == ()


def test_align_unlinked_station_is_an_error(three_day_store):
    # The link only exists for the Konstanz station id.
    other = station_resource(DEFAULT_BASE, "GHCND:ELSEWHERE")
    with pytest.raises(AnalysisError):
        align(three_day_store, [PV_IRI], "TMAX", other)


def test_align_station_mismatch_in_observations_gives_empty_series():
    from decimal import Decimal

    from energykg.climate import ClimateObservation, link_network_to_station, observation_quads
    from energykg.dataset import Dataset
    from energykg.headings import parse_heading
    from energykg.uplift import EnergyTable, evaluation_quads

    linked = station_resource(DEFAULT_BASE, "GHCND:LINKED")
    ds = Dataset()
    ds.add_all(evaluation_quads(EnergyTable([conftest.utc_day(1)], {conftest.PV_DEVICE: [Decimal("1.5")]})))
    # Observations belong to a different station than the linked one.
    ds.add_all(
        observation_quads(
            [ClimateObservation("GHCND:OTHER", conftest.utc_day(1), "TMAX", Decimal("20"))]
        )
    )
    ds.add(link_network_to_station(device_resource(DEFAULT_BASE, "DE_KN_COSSMIC"), linked))
    ds.freeze()
    [series] = align(ds, [PV_IRI], "TMAX", linked)
    assert series.pairs == ()


def test_align_requires_link():
    ds = conftest.Dataset()
    ds.freeze()
    with pytest.raises(AnalysisError) as excinfo:
        align(ds, [PV_IRI], "TMAX", STATION)
    assert "not linked" in str(excinfo.value)


def test_align_collects_auxiliary_prcp(three_day_store):
    [series] = align(three_day_store, [PV_IRI], "TMAX", STATION, auxiliary=("PRCP",))
    assert [str(v) for v in series.auxiliary["PRCP"]] == ["0", "2.5", "7.1"]


# -- correlation table and scatter ---------------------------------------------


def _table(ds, threshold):
    return correlation_table(align(ds, [PV_IRI], "TMAX", STATION), "TMAX", threshold)


def test_correlation_table_threshold_filtering(three_day_store):
    report = _table(three_day_store, 0.0)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.device == conftest.PV_DEVICE
    assert entry.n == 3
    expected = oracle_pcc([12.5, 13.0, 9.75], [22.3, 25.0, 18.1])
    assert abs(entry.pcc - expected) < 1e-12
    strict = _table(three_day_store, 1.0)
    assert strict.entries == []


def test_correlation_table_threshold_subset(three_day_store):
    low = _table(three_day_store, 0.1)
    high = _table(three_day_store, 0.99)
    low_devices = {e.device for e in low.entries}
    assert {e.device for e in high.entries} <= low_devices


def test_correlation_table_rejects_bad_threshold(three_day_store):
    with pytest.raises(AnalysisError):
        _table(three_day_store, 1.01)


def test_correlation_table_category_stats(three_day_store):
    report = _table(three_day_store, 0.7)
    stats = report.category_stats["pv"]
    assert stats["count"] == 1.0
    assert stats["min"] == stats["q1"] == stats["median"] == stats["q3"] == stats["max"]


def test_correlation_table_warns_on_short_series():
    from energykg.climate import ClimateObservation, link_network_to_station, observation_quads
    from energykg.dataset import Dataset
    from energykg.uplift import EnergyTable, evaluation_quads

    ds = Dataset()
    ds.add_all(evaluation_quads(EnergyTable([conftest.utc_day(1)], {conftest.PV_DEVICE: [Decimal("1.5")]})))
    ds.add_all(
        observation_quads(
            [ClimateObservation(conftest.STATION_ID, conftest.utc_day(1), "TMAX", Decimal("20"))]
        )
    )
    ds.add(link_network_to_station(device_resource(DEFAULT_BASE, "DE_KN_COSSMIC"), STATION))
    ds.freeze()
    report = _table(ds, 0.0)
    assert report.entries == []
    assert len(report.warnings) == 1
    assert "1 joined days" in report.warnings[0]


def test_correlation_table_excludes_zero_variance_device():
    from energykg.climate import ClimateObservation, link_network_to_station, observation_quads
    from energykg.dataset import Dataset
    from energykg.uplift import EnergyTable, evaluation_quads

    days = [conftest.utc_day(d) for d in (1, 2, 3)]
    ds = Dataset()
    ds.add_all(evaluation_quads(EnergyTable(days, {conftest.PV_DEVICE: [Decimal("2.0")] * 3})))
    ds.add_all(
        observation_quads(
            [
                ClimateObservation(conftest.STATION_ID, conftest.utc_day(d), "TMAX", Decimal(t))
                for d, t in ((1, "20"), (2, "22"), (3, "19"))
            ]
        )
    )
    ds.add(link_network_to_station(device_resource(DEFAULT_BASE, "DE_KN_COSSMIC"), STATION))
    ds.freeze()
    report = _table(ds, 0.0)
    assert report.entries == []
    assert any("undefined correlation" in w for w in report.warnings)


def test_quartiles_linear_interpolation():
    from energykg.analysis import _quartiles

    stats = _quartiles([4.0, 1.0, 3.0, 2.0])
    assert stats["min"] == 1.0
    assert stats["q1"] == 1.75
    assert stats["median"] == 2.5
    assert stats["q3"] == 3.25
    assert stats["max"] == 4.0
    assert stats["count"] == 4.0


def test_scatter_export_shape(three_day_store):
    [series] = align(three_day_store, [PV_IRI], "TMAX", STATION, auxiliary=("PRCP",))
    text = scatter_export([series])
    lines = text.strip().split("\n")
    assert lines[0] == "device,date,energy_kwh,TMAX,prcp"
    assert len(lines) == 4
    assert lines[1] == f"{conftest.PV_DEVICE},2016-05-01,12.5,22.3,0"
    assert lines[2].endswith(",2.5")


def test_scatter_export_empty_prcp_column(three_day_store):
    [series] = align(three_day_store, [PV_IRI], "TMAX", STATION)
    lines = scatter_export([series]).strip().split("\n")
    assert lines[1].endswith(",")


def test_scatter_export_rejects_empty_series():
    heading = parse_heading(conftest.PV_DEVICE)
    empty = AlignedSeries(heading, "TMAX", ())
    with pytest.raises(AnalysisError):
        scatter_export([empty])
    with pytest.raises(AnalysisError):
        scatter_export([])


def test_align_decodes_each_id_once(monkeypatch):
    # Three devices read on the same three days: the day join's rows repeat
    # each date id once per device, and each climate value once per device.
    from collections import Counter

    from energykg.climate import ClimateObservation, link_network_to_station, observation_quads
    from energykg.dataset import Dataset
    from energykg.uplift import EnergyTable, evaluation_quads

    names = [conftest.PV_DEVICE, "DE_KN_residential1_freezer", "DE_KN_residential1_heat_pump"]
    days = [conftest.utc_day(d) for d in (1, 2, 3)]
    ds = Dataset()
    ds.add_all(
        evaluation_quads(
            EnergyTable(days, {name: [Decimal(k), Decimal(k + 1), Decimal(k + 3)]
                               for k, name in enumerate(names)})
        )
    )
    ds.add_all(
        observation_quads(
            [ClimateObservation(conftest.STATION_ID, day, "TMAX", Decimal(20 + d))
             for d, day in enumerate(days)]
        )
    )
    ds.add(link_network_to_station(device_resource(DEFAULT_BASE, "DE_KN_COSSMIC"), STATION))
    ds.freeze()

    calls = Counter()
    term = Dataset.term

    def counting_term(self, term_id):
        calls[term_id] += 1
        return term(self, term_id)

    monkeypatch.setattr(Dataset, "term", counting_term)
    aligned = align(ds, [device_resource(DEFAULT_BASE, name) for name in names], "TMAX", STATION)
    assert [len(series.pairs) for series in aligned] == [3, 3, 3]
    assert aligned[2].pairs[2] == (date(2016, 5, 3), Decimal(5), Decimal(22))
    assert calls and max(calls.values()) == 1, {ds.texts()[i]: n for i, n in calls.items() if n > 1}

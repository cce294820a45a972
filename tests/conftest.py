from __future__ import annotations

from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import pytest

from energykg.climate import ClimateObservation, link_network_to_station, observation_quads
from energykg.dataset import Dataset
from energykg.headings import parse_heading
from energykg.namespaces import DEFAULT_BASE, device_resource, station_resource
from energykg.uplift import EnergyTable, evaluation_quads, topology_quads

DATA_DIR = Path(__file__).parent / "data"

STATION_ID = "GHCND:GME00102404"
PV_DEVICE = "DE_KN_industrial1_pv_1"


def utc_day(day: int, month: int = 5, year: int = 2016) -> datetime:
    return datetime(year, month, day, tzinfo=timezone.utc)


def build_three_day_store() -> Dataset:
    """One pv device with three daily readings plus TMAX/PRCP observations."""
    pv = parse_heading(PV_DEVICE)
    grid_import = parse_heading("DE_KN_industrial1_grid_import")
    ds = Dataset()
    ds.add_all(topology_quads([pv, grid_import]))
    ds.add_all(
        evaluation_quads(
            EnergyTable(
                [utc_day(1), utc_day(2), utc_day(3)],
                {pv.raw: [Decimal("12.5"), Decimal("13.0"), Decimal("9.75")]},
            )
        )
    )
    observations = []
    for day, tmax, prcp in [(1, "22.3", "0"), (2, "25.0", "2.5"), (3, "18.1", "7.1")]:
        observations.append(ClimateObservation(STATION_ID, utc_day(day), "TMAX", Decimal(tmax)))
        observations.append(ClimateObservation(STATION_ID, utc_day(day), "PRCP", Decimal(prcp)))
    ds.add_all(observation_quads(observations))
    ds.add(
        link_network_to_station(
            device_resource(DEFAULT_BASE, "DE_KN_COSSMIC"),
            station_resource(DEFAULT_BASE, STATION_ID),
        )
    )
    return ds.freeze()


@pytest.fixture(scope="session")
def three_day_store() -> Dataset:
    return build_three_day_store()


@pytest.fixture(scope="session")
def join_query_text() -> str:
    return (DATA_DIR / "energy_tmax_join.rq").read_text()


@pytest.fixture(scope="session")
def cossmic_columns() -> list[str]:
    return (DATA_DIR / "cossmic_columns.txt").read_text().split()


# -- acceptance reporting ------------------------------------------------------

_acceptance_results: list[tuple[str, str]] = []


def record_acceptance(name: str, outcome: str) -> None:
    _acceptance_results.append((name, outcome))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.module.__name__ != "test_acceptance":
        return
    if report.when == "call" or (report.when == "setup" and report.outcome == "skipped"):
        record_acceptance(item.name, report.outcome.upper())


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_results:
        terminalreporter.write_line(f"{outcome:7s} {name}")

"""Seeded synthetic energy and climate inputs with planted correlations.

Every device sits on one of a few sites and has one of six kinds. The
daily energy of each kind is planted against the day's TMAX:

- ``pv``: exactly ``0.5 * TMAX + 20``, so its Pearson coefficient is 1.00
- ``heat_pump``: ``40 - TMAX`` plus noise of at most 0.5, so pcc < -0.9
- every other kind: uniform noise independent of TMAX, far below 0.7

Counters are cumulative, as the CoSSMic export has them: either one
reading per hour or one per day. The first day has no previous-day
reading, so uplift drops it and every device has ``days - 1`` daily
values. The generator keeps the exact daily values, so the checks can
judge the program's outputs without running it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

STATION = "GHCND:GME00102404"
BASE = "http://jresearch.ucd.ie/climate-kg/"
KINDS = ("pv", "heat_pump", "freezer", "washing_machine", "grid_import", "dishwasher")
PLANTED = ("pv", "heat_pump")
START = date(2016, 1, 1)
_CENT = Decimal("0.01")


@dataclass
class Inputs:
    energy_csv: Path
    climate_csv: Path
    devices: list[str]
    days: list[date]
    # Daily energy per device, for every day but the first.
    daily: dict[str, dict[date, Decimal]]
    tmax: dict[date, Decimal]
    prcp: dict[date, Decimal]

    def kind(self, device: str) -> str:
        return device.split("_", 3)[3]

    def planted(self) -> set[str]:
        return {d for d in self.devices if self.kind(d) in PLANTED}


def site_names(count: int) -> list[str]:
    return ["industrial1"] + [f"residential{i}" for i in range(1, count)]


def device_names(sites: int, kinds: tuple[str, ...] = KINDS) -> list[str]:
    return [f"DE_KN_{site}_{kind}" for site in site_names(sites) for kind in kinds]


def _weather(rnd: random.Random, days: list[date]) -> tuple[dict, dict]:
    tmax: dict[date, Decimal] = {}
    prcp: dict[date, Decimal] = {}
    for day in days:
        season = 12.0 + 12.0 * math.sin(2 * math.pi * (day.timetuple().tm_yday - 110) / 365)
        value = max(-15.0, min(36.0, season + rnd.gauss(0.0, 3.0)))
        tmax[day] = Decimal(round(value * 10)) / 10
        prcp[day] = Decimal(0) if rnd.random() < 0.5 else Decimal(rnd.randint(1, 300)) / 10
    return tmax, prcp


def _daily_energy(rnd: random.Random, kind: str, tmax: Decimal) -> Decimal:
    if kind == "pv":
        return Decimal("0.5") * tmax + 20
    if kind == "heat_pump":
        return 40 - tmax + Decimal(rnd.randint(-50, 50)) / 100
    return Decimal(rnd.randint(100, 2500)) / 100


def _split(rnd: random.Random, total: Decimal, parts: int) -> list[Decimal]:
    """Non-negative cent amounts that sum exactly to ``total``."""
    cents = int(total / _CENT)
    weights = [rnd.random() + 0.05 for _ in range(parts)]
    scale = cents / sum(weights)
    shares = [int(w * scale) for w in weights]
    shares[-1] += cents - sum(shares)
    return [Decimal(share) * _CENT for share in shares]


def generate(workdir: Path, seed: int, sites: int, days: int, hourly: bool) -> Inputs:
    """Write ``energy.csv`` and ``climate.csv`` under ``workdir``."""
    rnd = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    devices = device_names(sites)
    day_list = [START + timedelta(days=i) for i in range(days)]
    tmax, prcp = _weather(rnd, day_list)

    daily: dict[str, dict[date, Decimal]] = {}
    # Per device, the counter increment of every reading, in reading order.
    steps: dict[str, list[Decimal]] = {}
    per_day = 24 if hourly else 1
    for device in devices:
        kind = device.split("_", 3)[3]
        energy = {day: _daily_energy(rnd, kind, tmax[day]) for day in day_list[1:]}
        daily[device] = energy
        first = [Decimal(rnd.randint(0, 100)) / 100 for _ in range(per_day)]
        first[0] = Decimal(rnd.randint(1000, 5000))
        device_steps = first
        for day in day_list[1:]:
            device_steps.extend(_split(rnd, energy[day], per_day))
        steps[device] = device_steps

    lines = ["utc_timestamp," + ",".join(devices)]
    counters = [Decimal(0)] * len(devices)
    columns = [steps[d] for d in devices]
    reading = 0
    for day in day_list:
        stamp = day.isoformat()
        hours = range(24) if hourly else (23,)
        for hour in hours:
            counters = [c + col[reading] for c, col in zip(counters, columns)]
            reading += 1
            lines.append(f"{stamp}T{hour:02d}:00:00Z," + ",".join(format(c, "f") for c in counters))
    energy_csv = workdir / "energy.csv"
    energy_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    climate = ["station,date,datatype,value"]
    for day in day_list:
        climate.append(f"{STATION},{day.isoformat()},TMAX,{tmax[day]}")
        climate.append(f"{STATION},{day.isoformat()},PRCP,{prcp[day]}")
    climate_csv = workdir / "climate.csv"
    climate_csv.write_text("\n".join(climate) + "\n", encoding="utf-8")
    return Inputs(energy_csv, climate_csv, devices, day_list, daily, tmax, prcp)

"""Output checks: the program's outputs against the generator's planted values.

Each check returns a list of problems; an empty list means the output is
correct. The expected values come from ``gen.Inputs``, never from the
program.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import date
from decimal import Decimal, InvalidOperation
from pathlib import Path

from gen import BASE, Inputs

THRESHOLD = 0.7
# analysis.categorize maps each generated kind to one scatter file.
SCATTER_FILE = {
    "pv": "pv",
    "heat_pump": "heat_pump",
    "freezer": "refrigerator_freezer",
    "grid_import": "grid_import",
    "washing_machine": "other",
    "dishwasher": "other",
}


def pearson(x: list[float], y: list[float]) -> float:
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def expected_report(inputs: Inputs) -> dict[str, float]:
    """Devices whose |pcc| against TMAX reaches the threshold, with the pcc."""
    out = {}
    for device in inputs.devices:
        days = sorted(inputs.daily[device])
        energy = [float(inputs.daily[device][d]) for d in days]
        tmax = [float(inputs.tmax[d]) for d in days]
        value = pearson(energy, tmax)
        if abs(value) >= THRESHOLD:
            out[device] = value
    return out


def _decimal(text: str) -> Decimal:
    try:
        return Decimal(text)
    except InvalidOperation:
        return Decimal("NaN")


def check_pipeline(inputs: Inputs, out: Path) -> list[str]:
    problems: list[str] = []
    expected = expected_report(inputs)
    n = len(inputs.days) - 1
    if set(expected) != inputs.planted():
        problems.append(f"generator: correlated set {sorted(expected)} is not the planted set")
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        tsv = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        return problems + [f"report unreadable: {exc}"]
    entries = {e["device"]: e for e in report.get("entries", [])}
    if set(entries) != set(expected):
        problems.append(f"report devices {sorted(entries)} != planted {sorted(expected)}")
    lines = ["device\tdatatype\tpcc\tn"]
    for device in sorted(expected):
        entry = entries.get(device)
        if entry is None:
            continue
        if entry["n"] != n or entry["datatype"] != "TMAX":
            problems.append(f"{device}: n={entry['n']} datatype={entry['datatype']}, want n={n} TMAX")
        if abs(entry["pcc"] - expected[device]) > 1e-9:
            problems.append(f"{device}: pcc {entry['pcc']} != {expected[device]}")
        kind = inputs.kind(device)
        if kind == "pv" and entry["pcc_display"] != "1.00":
            problems.append(f"{device}: pv pcc shown as {entry['pcc_display']}, want 1.00")
        if kind == "heat_pump" and not entry["pcc"] < -0.9:
            problems.append(f"{device}: heat pump pcc {entry['pcc']} not below -0.9")
        lines.append(f"{device}\tTMAX\t{entry['pcc']:.2f}\t{n}")
    if tsv != lines:
        problems.append("report.tsv does not list the planted devices")

    want_rows: dict[str, int] = {}
    for device in inputs.devices:
        name = SCATTER_FILE[inputs.kind(device)]
        want_rows[name] = want_rows.get(name, 0) + n
    for name, rows_wanted in sorted(want_rows.items()):
        path = out / f"scatter_{name}.csv"
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
        except OSError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if rows[:1] != [["device", "date", "energy_kwh", "TMAX", "prcp"]]:
            problems.append(f"{path.name}: header {rows[:1]}")
        body = rows[1:]
        if len(body) != rows_wanted:
            problems.append(f"{path.name}: {len(body)} rows, want {rows_wanted}")
        for row in body:
            problem = _scatter_row_problem(inputs, row)
            if problem:
                problems.append(f"{path.name}: {problem}")
                break
    return problems


def _scatter_row_problem(inputs: Inputs, row: list[str]) -> str:
    if len(row) != 5:
        return f"row {row} has {len(row)} cells"
    device, day_text, energy, tmax, prcp = row
    try:
        day = date.fromisoformat(day_text)
        want_energy = inputs.daily[device][day]
    except (KeyError, ValueError):
        return f"row {row} names no generated reading"
    if _decimal(energy) != want_energy:
        return f"{device} {day_text}: energy {energy}, want {want_energy}"
    if _decimal(tmax) != inputs.tmax[day]:
        return f"{device} {day_text}: TMAX {tmax}, want {inputs.tmax[day]}"
    if _decimal(prcp) != inputs.prcp[day]:
        return f"{device} {day_text}: prcp {prcp!r}, want {inputs.prcp[day]}"
    return ""


def check_join_json(inputs: Inputs, device: str, text: str) -> list[str]:
    """The day-join result for ``device``: one row per day, values planted."""
    try:
        payload = json.loads(text)
        variables = payload["head"]["vars"]
        bindings = payload["results"]["bindings"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"join result unreadable: {exc}"]
    if variables != ["eval", "val", "maxTprt", "date"]:
        return [f"join variables {variables}"]
    daily = inputs.daily[device]
    if len(bindings) != len(daily):
        return [f"join for {device}: {len(bindings)} rows, want {len(daily)}"]
    prefix = f"{BASE}resource/cossmic/{device}/evaluation/"
    seen: set[date] = set()
    for row in bindings:
        try:
            day = date.fromisoformat(row["date"]["value"][:10])
            val = _decimal(row["val"]["value"])
            tmax = _decimal(row["maxTprt"]["value"])
            evaluation = row["eval"]["value"]
        except (KeyError, ValueError, TypeError) as exc:
            return [f"join row {row}: {exc}"]
        if day in seen or day not in daily or val != daily[day] or tmax != inputs.tmax[day]:
            return [f"join row for {device} on {day}: val {val} maxTprt {tmax}"]
        if evaluation != prefix + day.strftime("%Y%m%dT000000Z"):
            return [f"join row for {device} on {day}: eval {evaluation}"]
        seen.add(day)
    return []

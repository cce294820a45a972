"""Smoke test of the benchmark at its tiny size.

Run from the repository root with ``python3 -m pytest perfbench``. It runs
every workload untraced and traced, and checks that each declared metric
is emitted with its unit and that every output check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_and_checks_pass(trace):
    proc = _run(ROOT, "--workload", "all", "--size", "tiny", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    specs = CATALOG["per_layer" if trace == "1" else "end_to_end"]
    names = [w["name"] for w in CATALOG["workloads"]]
    assert len(result["metrics"]) == len(specs) * len(names)
    for workload in names:
        for spec in specs:
            metric = result["metrics"][f"{workload}.{spec['name']}"]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))
            if trace == "0":
                assert metric["value"] > 0, (workload, spec["name"])
                assert any(
                    line.split()[:2] == [workload, spec["name"]] and f" {spec['unit']} " in line
                    and " n=" in line
                    for line in lines
                ), (workload, spec["name"])
    if trace == "1":
        for workload in names:
            out = ROOT / ".perfbench_out" / workload
            assert list(out.glob("spans_*.json")), workload
            assert "trace_overhead_s" in json.loads((out / "layers.json").read_text())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "pipeline", "--seconds", "1")
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:]
    assert not (last and last[0].startswith("{"))


def test_join_check_rejects_a_wrong_value(tmp_path):
    inputs = gen.generate(tmp_path, seed=5, sites=1, days=40, hourly=False)
    device = inputs.devices[0]
    base = f"{gen.BASE}resource/cossmic/{device}/evaluation/"
    bindings = [
        {
            "eval": {"type": "uri", "value": base + day.strftime("%Y%m%dT000000Z")},
            "val": {"type": "literal", "value": str(value)},
            "maxTprt": {"type": "literal", "value": str(inputs.tmax[day])},
            "date": {"type": "literal", "value": day.isoformat() + "T00:00:00Z"},
        }
        for day, value in sorted(inputs.daily[device].items())
    ]
    payload = {"head": {"vars": ["eval", "val", "maxTprt", "date"]}, "results": {"bindings": bindings}}
    assert checks.check_join_json(inputs, device, json.dumps(payload)) == []
    bindings[3]["val"]["value"] = str(Decimal(bindings[3]["val"]["value"]) + Decimal("0.01"))
    assert checks.check_join_json(inputs, device, json.dumps(payload))


def test_generator_plants_the_correlations(tmp_path):
    inputs = gen.generate(tmp_path, seed=9, sites=2, days=90, hourly=True)
    report = checks.expected_report(inputs)
    assert set(report) == inputs.planted()
    for device, value in report.items():
        if inputs.kind(device) == "pv":
            assert f"{value:.2f}" == "1.00"
        else:
            assert value < -0.9
    # The hourly counters difference back to the planted daily energy.
    rows = inputs.energy_csv.read_text().splitlines()
    column = rows[0].split(",").index(inputs.devices[0])
    last = {row[:10]: Decimal(row.split(",")[column]) for row in rows[1:]}
    days = sorted(last)
    for before, day in zip(days, days[1:]):
        planted = inputs.daily[inputs.devices[0]][inputs.days[days.index(day)]]
        assert last[day] - last[before] == planted

#!/usr/bin/env python3
"""Benchmark of the energykg pipeline, query path and HTTP endpoint.

Run from the root of a checkout; the program is run from its ``src``::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads: ``pipeline``, ``cold_query``, ``endpoint`` (see workloads.py),
or ``all`` for the three in turn. The inputs are generated from
``--seed``. Human-readable lines name each metric with its unit and
sample count; the last line of standard output is one JSON object::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, from untraced runs. With ``--trace 1`` they are the
``per_layer`` list, from a traced pass whose spans are written under
``.perfbench_out/<workload>/``. A metric a workload does not exercise
reads 0. The exit code is 1 when an output check failed and 2 when the
benchmark could not run at all, in which case no JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

from program import Program, ProgramError
from workloads import SIZES, WORKLOADS, BenchError, Context, Result


def _catalog(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(root: Path, name: str, args: argparse.Namespace) -> Result:
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    out = root / ".perfbench_out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
    try:
        program = Program(root, logdir=work)
        ctx = Context(program, work, out, args.seed, args.seconds, SIZES[args.size][name])
        result = WORKLOADS[name](ctx, bool(args.trace))
        if args.trace:
            layers = {key: {"value": v, "unit": u, "samples": n} for key, (v, u, n) in result.metrics.items()}
            (out / "layers.json").write_text(json.dumps(layers, indent=1) + "\n", encoding="utf-8")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _metrics(result: Result, wanted: list[dict], trace: bool) -> dict:
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name in result.metrics:
            value, unit, _ = result.metrics[name]
        elif trace:
            value, unit = 0.0, spec["unit"]
        else:
            raise BenchError(f"end-to-end metric {name} was not measured")
        if unit != spec["unit"]:
            raise BenchError(f"metric {name} measured in {unit}, declared in {spec['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def _print_summary(name: str, result: Result) -> None:
    for metric, (value, unit, samples) in result.metrics.items():
        print(f"{name:<10} {metric:<32} {value:14.4f} {unit:<6} n={samples}")
    rate = result.failed / result.attempted if result.attempted else 0.0
    print(f"{name:<10} {'error_rate':<32} {rate:14.4f} {'ratio':<6} n={result.attempted}")
    for note in result.notes:
        print(f"{name:<10} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is the smoke-test size")
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"seed {args.seed}, size {args.size}, trace {args.trace}")
    try:
        catalog = _catalog(root)
        wanted = catalog["per_layer" if args.trace else "end_to_end"]
        results = {name: run_workload(root, name, args) for name in names}
        metrics = {}
        for name, result in results.items():
            _print_summary(name, result)
            for key, value in _metrics(result, wanted, bool(args.trace)).items():
                metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    except (OSError, ValueError, KeyError, ProgramError, BenchError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one command; write its exit code, wall time and peak RSS as JSON.

A process's ``ru_maxrss`` includes the peak RSS of the address space it
replaced at ``exec``: a command spawned straight from the benchmark
would report at least the benchmark's own peak, which grows with its
inputs and checks. Spawned from this small launcher instead, the figure
is the command's own. SIGINT and SIGTERM are passed on to the command::

    python3 perfbench/launch.py REPORT.json -- python3 -m energykg query ...
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launch.py REPORT.json -- COMMAND...", file=sys.stderr)
        return 2
    report, command = argv[0], argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda received, frame: os.kill(pid, received))
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({"code": code, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}, handle)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The energykg CLI as child processes, run from the checkout's sources.

Every command is started through ``launch.py``, which reaps it with
``os.wait4`` and reports its exit code, wall time and peak RSS.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
TRACE_SCRIPT = HERE / "tracing.py"
LAUNCH_SCRIPT = HERE / "launch.py"


class ProgramError(Exception):
    """The checkout does not hold the program's sources."""


class Program:
    def __init__(self, root: Path, logdir: Path) -> None:
        src = root / "src"
        if not (src / "energykg" / "__init__.py").is_file():
            raise ProgramError(f"no energykg sources under {src}")
        self.src = src
        self.logdir = logdir
        # Settings from the environment would change the outputs.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("HECP_")}
        self.env["PYTHONPATH"] = str(src)
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.peak_rss_kb = 0
        self.processes = 0
        self._spawned = 0

    def argv(self, args: list[str], spans: Optional[Path] = None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "energykg", *args]
        return [sys.executable, str(TRACE_SCRIPT), str(spans), "--", *args]

    def spawn(
        self, args: list[str], stdout: Optional[Path] = None, spans: Optional[Path] = None
    ) -> subprocess.Popen:
        self._spawned += 1
        report = self.logdir / f"child{self._spawned}.json"
        stderr = self.logdir / f"child{self._spawned}.err"
        argv = [sys.executable, str(LAUNCH_SCRIPT), str(report), "--", *self.argv(args, spans)]
        with open(stdout or os.devnull, "wb") as out, open(stderr, "wb") as err:
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=err)
        proc.report_path = report  # type: ignore[attr-defined]
        proc.stderr_path = stderr  # type: ignore[attr-defined]
        proc.seconds = 0.0  # type: ignore[attr-defined]
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float) -> int:
        """Wait for the command, stopping it after ``timeout`` seconds."""
        timer = threading.Timer(timeout, proc.terminate)
        timer.start()
        try:
            proc.wait()
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no child behind.
            proc.terminate()
            proc.wait()
            raise
        finally:
            timer.cancel()
        try:
            report = json.loads(Path(proc.report_path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return proc.returncode
        proc.returncode = report["code"]
        proc.seconds = report["seconds"]
        self.peak_rss_kb = max(self.peak_rss_kb, report["maxrss_kb"])
        self.processes += 1
        return proc.returncode

    def run(
        self,
        args: list[str],
        stdout: Optional[Path] = None,
        spans: Optional[Path] = None,
        timeout: float = 150.0,
    ) -> tuple[int, float]:
        """Run one command to completion: exit code and the command's wall seconds."""
        proc = self.spawn(args, stdout, spans)
        code = self.reap(proc, timeout)
        if code != 0:
            report_failure(proc, f"energykg {args[0]} exited with {code}")
        return code, proc.seconds

    def interrupt(self, proc: subprocess.Popen, timeout: float = 20.0) -> int:
        """Stop a server with SIGINT, as Ctrl-C would, and reap it."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        return self.reap(proc, timeout)

    def stop(self, proc: subprocess.Popen) -> None:
        """Stop and reap a command that may still run; for error paths."""
        if proc.poll() is None:
            proc.terminate()
        self.reap(proc, 10.0)


def report_failure(proc: subprocess.Popen, message: str) -> None:
    tail = ""
    path = getattr(proc, "stderr_path", None)
    if path is not None and Path(path).exists():
        tail = Path(path).read_text(encoding="utf-8", errors="replace")[-2000:]
    print(f"FAILED: {message}\n{tail}", file=sys.stderr)

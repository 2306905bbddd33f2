"""Shared plumbing: the program's environment, child processes, statistics.

Every path here is relative to the checkout the benchmark runs from; the
program under test is imported from ``src/`` of that checkout only.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
# Scratch space for checkpoints, indexes and loop work directories.  It
# lives in the checkout and is emptied at the start of every run.
WORK = ROOT / ".perfbench_work"

# The tail percentile of every latency metric.  p90 of /recommend spread
# 0.20-0.32 of its median across runs here against 0.13-0.14 for p75,
# and a run's 50-70 online cycles leave ten samples beyond p75 only.
TAIL_PERCENTILE = 75

# Settings that would pin the program's thread use away from its own
# defaults; the benchmark measures the program as shipped.  ``run.py``
# drops them from its own environment, which every child inherits.
PINNING_VARS = ("REPRO_BACKEND", "REPRO_BACKEND_THREADS",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed program operation)."""


def check_checkout() -> None:
    """Refuse to run anywhere but the root of a checkout with sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}: run from the "
                         f"root of a checkout")


def program_env() -> Dict[str, str]:
    """Environment for the program's processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def use_program_sources() -> None:
    """Make ``import repro`` in this process load the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_workdir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class ProcResult:
    __slots__ = ("code", "wall_s", "maxrss_mb", "stdout", "stderr")

    def __init__(self, code, wall_s, maxrss_mb, stdout, stderr):
        self.code = code
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr

    @property
    def ok(self) -> bool:
        return self.code == 0


def run_process(argv: Sequence[str], timeout_s: float = 150.0
                ) -> ProcResult:
    """Run one program process to its end; wall time and peak RSS.

    Wall time runs from just before the spawn to the reaped exit.  Peak
    RSS comes from ``wait4`` on the child itself.  Output goes to unnamed
    files in the work directory, never to pipes the parent would have to
    drain while timing.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), env=program_env(),
                                cwd=str(ROOT), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        code, rusage = wait_with_rusage(proc, timeout_s)
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return ProcResult(code, wall, rusage.ru_maxrss / 1024.0,
                          out.read().decode(errors="replace"),
                          err.read().decode(errors="replace"))


def wait_with_rusage(proc: subprocess.Popen, timeout_s: float):
    """Reap ``proc`` with its rusage; kill it past ``timeout_s``.

    If the wait itself is interrupted (SIGTERM on the benchmark), the
    child is killed and reaped before the interruption propagates.
    """
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, rusage
            if time.monotonic() > deadline:
                break
            time.sleep(0.002)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.kill()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return -signal.SIGKILL, rusage


def cli_import_s() -> float:
    """Wall time of a fresh interpreter importing ``repro.cli``: the
    start-up every CLI process pays before its command runs."""
    res = run_process([sys.executable, "-c", "import repro.cli"])
    if not res.ok:
        raise BenchError(f"import repro.cli failed: {res.stderr}")
    return res.wall_s


def repro_argv(*args: str) -> List[str]:
    """``python3 -m repro <args>`` with this interpreter."""
    return [sys.executable, "-m", "repro", *args]


# ----------------------------------------------------------------------
# Leak checks: child processes, listening ports, shared memory
# ----------------------------------------------------------------------
SHM_DIR = Path("/dev/shm")


def shm_segments() -> set:
    """The program's shared-memory segments currently present."""
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir()
            if p.name.startswith("repro_shm_")}


def live_children() -> List[int]:
    """Pids of this process's children that still exist (any state).

    Python's shared-memory resource tracker is left out: it is started
    by the first shared-memory segment a process creates (the traced
    run's in-process front-end) and exits with its parent.
    """
    me = os.getpid()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me and b"resource_tracker" not in cmdline:
            children.append(int(entry.name))
    return children


def port_is_closed(port: int) -> bool:
    with socket.socket() as sock:
        sock.settimeout(0.5)
        return sock.connect_ex(("127.0.0.1", int(port))) != 0


class Tally:
    """Operations attempted and failed, and output checks that failed.

    An operation fails on a non-zero exit, a non-200 response, a
    degraded answer for a known user, an exception, or a failed output
    check on what it produced.  ``correct`` is false once any output
    check has failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures: List[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                log(f"[fail] {what}")
        return ok

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.check_failures.append(what)
            log(f"[check] {what}")
        return bool(ok)

    def absorb(self, record: Dict[str, object]) -> None:
        """Fold in the tally a child process reported in its record."""
        self.attempted += int(record["attempted"])
        self.failed += int(record["failed"])
        for what in record["check_failures"]:
            self.check(False, what)

    def as_record(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "check_failures": list(self.check_failures)}

    @property
    def correct(self) -> bool:
        return not self.check_failures


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np
    if len(values) == 0:
        raise BenchError(f"p{q:g} of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(result: Dict[str, object]) -> None:
    """The result line: always the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)

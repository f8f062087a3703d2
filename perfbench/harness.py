"""Jobs, correctness checks and the run record shared by every workload."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())


@dataclass
class Check:
    name: str
    ok: bool
    detail: object = None


@dataclass
class Job:
    name: str
    pass_no: int
    seconds: float
    error: str | None
    checks: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(c.ok for c in self.checks)


class Harness:
    """Runs jobs: the job body is timed, its checks run after the clock stops."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.jobs: list[Job] = []
        self.pass_no = 0

    def job(self, name: str, body, check=None):
        """Time ``body()``; then ``check(result)`` returns a list of
        :class:`Check`.  An exception in the body fails the job and is
        recorded, never re-raised, so later jobs still run."""
        error = None
        result = None
        with self.tracer.job(name):
            t0 = time.perf_counter()
            try:
                result = body()
            except Exception as err:  # a failed job is data, not a crash
                error = f"{type(err).__name__}: {err}"
            seconds = time.perf_counter() - t0
        checks: list[Check] = []
        if error is None and check is not None:
            try:
                checks = list(check(result))
            except Exception as err:
                checks = [Check("check-raised", False, f"{type(err).__name__}: {err}")]
        self.jobs.append(Job(name, self.pass_no, seconds, error, checks))
        return result


# ---------------------------------------------------------------------------
# Check helpers
# ---------------------------------------------------------------------------

def eq(name: str, got, want) -> Check:
    return Check(name, got == want, None if got == want else {"got": got, "want": want})


def rel(name: str, got, want: float, rtol: float) -> Check:
    got = float(got)
    ok = math.isfinite(got) and abs(got - want) <= rtol * abs(want)
    return Check(name, ok, {"got": got, "want": want, "rtol": rtol})


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when a failed job left no work to divide by."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(blas_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "caches": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
    }


def move_table_bytes(n_states: int, n_moves: int) -> dict:
    """Working set of a move table, computed from its shape (int64)."""
    return {"states": n_states, "moves": n_moves,
            "move_table_bytes_computed": n_states * n_moves * 8}

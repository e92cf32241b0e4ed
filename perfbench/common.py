"""Shared pieces of the workloads: statistics, memory, the run record."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch space for corpora and daemon logs; removed after each run.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

#: Run records (envelope, counts, frozen planner choices, trace spans).
OUT_DIR = os.path.join(ROOT, "perfbench-out")

#: Percentiles a tail may be reported at, highest first.  p99.9 and
#: above read the few slowest requests of a run, which on a shared
#: 2-core VM moved by 2x between identical runs; p99 with >= 10 samples
#: beyond it repeats within the bounds.
TAIL_LADDER = (99.0, 95.0, 90.0)


class CheckFailed(Exception):
    """A program output disagreed with the oracle or a stated property."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-pct * len(ordered) // 100))))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples)``: the highest ladder percentile with
    at least ten samples beyond it (the median below forty samples)."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct, percentile(values, pct), n
    return 50.0, median(values), n


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` -- this process by default."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


def _cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the VM from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class Rounds:
    """Samples of the timed phase, kept per round, plus the share of CPU
    time the hypervisor took from the VM (``steal``) in each round.

    The metrics use the *less-stolen half* of the rounds: those whose
    steal share is at most the run's median round.  On the shared VM the
    benchmark was built on, host steal came in bursts of 3-20% and slowed
    a closed-loop client by up to 2x; the program's own speed is what the
    benchmark compares, so the rounds the host disturbed least stand for
    the run.  The record keeps every round.
    """

    def __init__(self) -> None:
        self.done: List[dict] = []
        self.count = 0
        self.samples: Dict[str, List[float]] = {}

    def start(self) -> None:
        self.count = 0
        self.samples = {}
        self._ticks = _cpu_ticks()
        self._t0 = time.perf_counter()

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def end(self) -> None:
        secs = time.perf_counter() - self._t0
        steal, total = _cpu_ticks()
        self.done.append(
            {
                "secs": secs,
                "count": self.count,
                "steal_pct": ratio(
                    100.0 * (steal - self._ticks[0]), total - self._ticks[1]
                ),
                "samples": self.samples,
            }
        )

    def clean(self) -> List[dict]:
        cut = median([r["steal_pct"] for r in self.done])
        return [r for r in self.done if r["steal_pct"] <= cut]

    def rate(self) -> float:
        """Median over the clean rounds of operations per second."""
        return median([r["count"] / r["secs"] for r in self.clean()])

    def p50(self, key: str) -> float:
        """Median over the clean rounds of each round's median."""
        return median(
            [median(r["samples"][key]) for r in self.clean() if r["samples"].get(key)]
        )

    def pooled(self, key: str) -> List[float]:
        """Every sample of ``key`` from the clean rounds."""
        return [x for r in self.clean() for x in r["samples"].get(key, ())]

    def summary(self) -> dict:
        """Per-round rate and steal for the run record."""
        cut = median([r["steal_pct"] for r in self.done])
        return {
            "rounds": len(self.done),
            "clean_rounds": len(self.clean()),
            "steal_pct": [round(r["steal_pct"], 2) for r in self.done],
            "rate": [round(r["count"] / r["secs"], 1) for r in self.done],
            "steal_cut_pct": cut,
        }


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def envelope(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, workload: str) -> None:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


class Timer:
    """``with Timer() as t: ...`` then ``t.s`` / ``t.ms``."""

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.s = time.perf_counter() - self._t0
        self.ms = self.s * 1000.0


def write_record(name: str, record: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    return path


def say(*parts) -> None:
    """A human-readable progress line (the result is the last line)."""
    print(*parts, flush=True)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return statistics.geometric_mean(values)


def emit(attempted: int, failed: int, metrics: Dict[str, dict]) -> None:
    """Print the one-line JSON result (always the last line of a run)."""
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )

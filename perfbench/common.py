"""Arithmetic and bookkeeping shared by the workloads.

Percentiles use the nearest-rank rule. A run reports the median and p90 of
a timing only when at least ten samples lie beyond p90 (``MIN_TAIL``), so
each workload keeps measuring until it has ``min_samples(0.9)`` of them.

Timed samples come only from stretches in which the hypervisor stole at
most ``MAX_STEAL`` of the machine's CPU time (:class:`StealWindows`); a
run extends itself by the stolen stretches, up to ``MAX_EXTEND`` times
its length.
"""

from __future__ import annotations

import bisect
import ctypes
import gc
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10

#: Largest share of machine CPU time the hypervisor may steal from a
#: stretch whose samples are timed. An idle 2-core guest here loses 0-2%;
#: 2-s stretches of `serve_mixed` with 7-10% stolen resolve ~30% slower,
#: and a run with a quarter stolen read three times slower.
MAX_STEAL = 0.03

#: A run extends itself by its stolen stretches up to this multiple of
#: ``--seconds``, which keeps the benchmark's total time bounded.
MAX_EXTEND = 1.2

#: Environment variables that size the BLAS thread pools.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread, as the repository's benchmarks do (before numpy loads)."""
    for var in BLAS_ENV:
        os.environ[var] = "1"


def min_samples(q: float) -> int:
    """Smallest sample count with ``MIN_TAIL`` samples beyond quantile ``q``."""
    return math.ceil(MIN_TAIL / (1.0 - q) - 1e-9)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def median(values) -> float:
    """Median (mean of the two middle values for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Outcome:
    """Operations attempted and failed, plus the named output checks made.

    An operation that fails, is refused or gives a wrong output counts as
    failed. A run is correct when no operation failed and every check held.
    """

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)

    def op(self, ok: bool) -> bool:
        """Count one operation; ``ok=False`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one named output check; returns ``ok``."""
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed_frac(self) -> float:
        """Failed, refused or wrong operations over attempted operations."""
        if self.attempted <= 0:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted

    @property
    def correct(self) -> bool:
        return (
            self.attempted > 0
            and self.failed == 0
            and all(c["ok"] for c in self.checks)
        )


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB; default: this one."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def reset_peak_rss() -> None:
    """Hand freed heap back to the OS, then restart this process's ``VmHWM``.

    Without the trim, the next peak includes what earlier work freed but
    the allocator kept (per-fit peaks grew 108 -> 162 MiB over four
    fits; trimmed, they stay at 110). Each step is skipped where the C
    library or the kernel does not offer it.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def _blas_vendor() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    """The machine block recorded with every result."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
    }


def loadavg() -> list[float]:
    """``os.getloadavg()`` as a list, so a noisy neighbour shows in the data."""
    return [round(x, 2) for x in os.getloadavg()]


def cpu_ticks() -> dict:
    """Machine-wide ``/proc/stat`` CPU ticks: total and stolen by the hypervisor."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return {"total": sum(fields[:8]), "steal": fields[7] if len(fields) > 7 else 0}


def steal_frac(before: dict, after: dict) -> float:
    """Share of CPU time the hypervisor took from this machine between two reads."""
    total = after["total"] - before["total"]
    return (after["steal"] - before["steal"]) / total if total > 0 else 0.0


class StealWindows:
    """Consecutive stretches of at least ``period`` seconds, each marked
    clean or stolen by the CPU time the hypervisor took during it.

    The timing loop calls :meth:`tick` often; :meth:`clean` then tells
    whether a sample taken at a ``time.perf_counter()`` instant fell in a
    clean stretch. An instant after the last closed stretch is not clean.
    """

    def __init__(self, period: float = 2.0):
        self.period = period
        self._starts = [time.perf_counter()]
        self._ticks = cpu_ticks()
        self._clean: list[bool] = []
        self.stolen_s = 0.0

    def tick(self, force: bool = False) -> None:
        """Close the current stretch once ``period`` has passed (or now, with ``force``)."""
        now = time.perf_counter()
        if not force and now - self._starts[-1] < self.period:
            return
        ticks = cpu_ticks()
        clean = steal_frac(self._ticks, ticks) <= MAX_STEAL
        if not clean:
            self.stolen_s += now - self._starts[-1]
        self._clean.append(clean)
        self._starts.append(now)
        self._ticks = ticks

    def clean(self, instant: float) -> bool:
        k = bisect.bisect_right(self._starts, instant) - 1
        return 0 <= k < len(self._clean) and self._clean[k]

    @property
    def clean_s(self) -> float:
        """Time of the closed stretches that were clean."""
        return self._starts[-1] - self._starts[0] - self.stolen_s

    @property
    def clean_frac(self) -> float:
        """Share of the closed stretches' time that was clean."""
        total = self._starts[-1] - self._starts[0]
        return self.clean_s / total if total > 0 else 1.0

    def timed(self, samples: list, instant, minimum: int) -> list:
        """The samples taken in clean stretches, or all if fewer than ``minimum``."""
        clean = [x for x in samples if self.clean(instant(x))]
        return clean if len(clean) >= minimum else samples

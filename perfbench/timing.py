"""Clocks, percentiles and the result line shared by the workloads."""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Dict, Sequence

# p99 is reported only when at least this many samples lie beyond it.
TAIL_PCT = 99
TAIL_MIN_BEYOND = 10
# Operations at the start of a run that are discarded while caches fill;
# they count in setup_s.
WARMUP_OPS = 5


def process_age_s() -> float:
    """Seconds since this process was forked, from /proc/self/stat.

    The kernel keeps the start time in clock ticks (10 ms here), so the
    value is late by up to one tick.
    """
    with open("/proc/self/stat") as fh:
        stat = fh.read()
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


class SetupClock:
    """Time from process start to the first timed operation, minus the
    time the benchmark spends generating its own inputs."""

    def __init__(self, age_at_start_s: float, start: float):
        self._age = age_at_start_s
        self._start = start
        self._excluded = 0.0
        self.setup_s = None

    def exclude(self, seconds: float):
        self._excluded += seconds

    def first_operation(self):
        if self.setup_s is None:
            self.setup_s = self._age + time.perf_counter() - self._start - self._excluded


def median(samples: Sequence[float]) -> float:
    s = sorted(samples)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return float(s[mid]) if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def tail_rank(n: int, pct: int = TAIL_PCT) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return -(-n * pct // 100)


def min_tail_samples(pct: int = TAIL_PCT, min_beyond: int = TAIL_MIN_BEYOND) -> int:
    """Smallest sample count with min_beyond samples strictly beyond the rank."""
    n = 1
    while n - tail_rank(n, pct) < min_beyond:
        n += 1
    return n


def tail_percentile(samples: Sequence[float], pct: int = TAIL_PCT,
                    min_beyond: int = TAIL_MIN_BEYOND) -> float:
    """Nearest-rank pct-th percentile; refuses a tail with too few samples."""
    n = len(samples)
    rank = tail_rank(n, pct)
    if n == 0 or n - rank < min_beyond:
        raise ValueError(f"{n} samples leave {n - rank} beyond p{pct}, "
                         f"need {min_beyond}")
    return float(sorted(samples)[rank - 1])


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set in MiB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(setup_s: float, op_ns: Sequence[int], timed_wall_s: float,
               rss_mb: float) -> Dict[str, dict]:
    ms = [v / 1e6 for v in op_ns]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "step_ms_p50": {"value": median(ms), "unit": "ms"},
        "step_ms_p99": {"value": tail_percentile(ms), "unit": "ms"},
        "steps_per_s": {"value": len(ms) / timed_wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})

"""Shared pieces of the benchmark: statistics, checks, provenance.

Everything here is measured or checked from outside the program: the
benchmark recomputes cuts and balance limits from the returned
partitions itself instead of trusting the numbers the program reports.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np
from scipy.special import betainc

#: contention control: no more PEs, workers or load threads than this
MAX_PARALLEL = 2

#: set-up is repeated this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 3

#: one host-speed probe: this many timed slices of a fixed pure-Python loop
PROBE_SLICES = 3
PROBE_ITERATIONS = 100_000
#: seconds one probe slice takes on the reference host.  Every reported
#: time is wall time scaled to that host's speed (see ``ref_factor``).
REF_PROBE_S = 0.005

#: units of the end-to-end metrics
UNITS: Dict[str, str] = {
    "setup_s": "s", "op_p50_s": "s", "throughput_ops_s": "1/s",
    "cut_mean": "weight", "peak_rss_mb": "MiB", "ok_rate": "frac",
}

END_TO_END = tuple(UNITS)

KERNELS = ("edge_ratings", "contract_edges", "gain_boundary", "band_bfs")

PER_LAYER: Dict[str, str] = {
    # the latency tail is a per-layer number, not a gated end-to-end one:
    # seq-road16k and cluster-p2 run ~20 ops, and a p95 over 20 ops hangs
    # on whether the seed list holds zero, one or two of the partition
    # seeds that take twice as long (52% spread over ten seq runs).  On
    # the library workloads the traced run takes it from the traced ops.
    "op_p95_s": "s",
    "coarsening.s": "s",
    "coarsening.levels": "count",
    "coarsening.coarsest_n": "count",
    "initial.s": "s",
    "refinement.s": "s",
    "refinement.level_max_s": "s",
    "refinement.feasibility_s": "s",
    **{f"kernels.{name}.calls": "count" for name in KERNELS},
    **{f"kernels.{name}.s": "s" for name in KERNELS},
    "spmd.coarsening_max_s": "s",
    "spmd.initial_max_s": "s",
    "spmd.refinement_max_s": "s",
    "engine.overhead_s": "s",
    "engine.messages": "count",
    "engine.bytes": "bytes",
    "observability.critical_path_s": "s",
    "observability.recv_wait_frac": "frac",
    "observability.collective_wait_frac": "frac",
    "service.hit_p50_s": "s",
    "service.miss_p50_s": "s",
    "service.patch_p50_s": "s",
    "service.http_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s.miss": "s",
    "service.run_s.patch": "s",
    "service.cache_hit_ratio": "frac",
    "service.cache_hits_per_cycle": "count",
    "service.cache_misses_per_cycle": "count",
    "service.jobs_executed": "count",
    "incremental.patch_run_s": "s",
    "tracing.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed correctness check)."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted
    average of all order statistics instead of the one or two nearest
    ranks.  On serve-mixed exactly half the ops are cache hits, so the
    plain median sits on the edge between the slowest hit and the
    fastest patch and jumps between them from run to run."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    if n < 2:
        return float(x[0]) if n else 0.0
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


# ---------------------------------------------------------------------------
# host diagnostics
# ---------------------------------------------------------------------------

def _loop(iterations: int) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return time.perf_counter() - t0


def probe() -> float:
    """Host speed now: the median time of ``PROBE_SLICES`` slices of a
    fixed loop.  Taken only while the program is idle (between ops, or
    between serve-mixed rounds), so the program's own load never slows
    it down."""
    return median([_loop(PROBE_ITERATIONS) for _ in range(PROBE_SLICES)])


def ref_factor(before: float, after: float) -> float:
    """Reference seconds per wall second for work between two probes:
    multiplied by it, a wall time becomes the time the same work takes
    on a host where a probe slice takes ``REF_PROBE_S``.

    The benchmark's hosts are shared, and their speed drifts by tens of
    percent within a minute (on a shared 2-CPU VM, a fixed loop measured
    in 15 s blocks spread 24% IQR/median); op wall times drift with it,
    and no run length averages that away.  Scaling each timing by the
    probes around it leaves the work the program does, which is what a
    change to it moves: the probes never run the program's code."""
    return REF_PROBE_S / ((before + after) / 2.0)


def scale_times(values: Dict[str, float], factor: float) -> Dict[str, float]:
    """``values`` with every per-layer time (unit ``s``) times ``factor``."""
    return {name: value * factor if PER_LAYER.get(name) == "s" else value
            for name, value in values.items()}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic
    recorded at the start and end of every run (never a metric)."""
    return _loop(2_000_000)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child
    (engine PEs, the service process), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def provenance(root: str) -> Dict[str, Any]:
    """Which code ran where: git SHA and dirty flag, CPUs, Python, and
    the active kernel backend."""
    from repro import kernels
    from repro.provenance import git_sha

    sha = git_sha(root)
    return {
        "git_sha": sha.removesuffix("-dirty") if sha else None,
        "dirty": sha.endswith("-dirty") if sha else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": kernels.get_backend(),
        "numba_available": bool(kernels.NUMBA_AVAILABLE),
    }


# ---------------------------------------------------------------------------
# correctness checks (the benchmark's own arithmetic)
# ---------------------------------------------------------------------------

def cut_of(g, part: np.ndarray) -> float:
    """Total weight of edges whose endpoints sit in different blocks."""
    part = np.asarray(part)
    src = np.repeat(np.arange(g.n), np.diff(g.xadj))
    return float(g.adjwgt[part[src] != part[g.adjncy]].sum()) / 2.0


def feasible(g, part: np.ndarray, k: int, epsilon: float) -> bool:
    """Every block within L_max = (1+eps)*c(V)/k + max_v c(v), checked
    separately for each vertex-weight constraint."""
    part = np.asarray(part)
    if part.shape != (g.n,) or (g.n and (part.min() < 0 or part.max() >= k)):
        return False
    weights = np.asarray(g.vwgts, dtype=np.float64).reshape(g.n, -1)
    for dim in range(weights.shape[1]):
        w = weights[:, dim]
        limit = (1.0 + epsilon) * w.sum() / k + (w.max() if g.n else 0.0)
        blocks = np.bincount(part, weights=w, minlength=k)
        if blocks.max() > limit + 1e-9:
            return False
    return True


def check_partition(g, part, k: int, epsilon: float,
                    reported_cut: float) -> Optional[str]:
    """None when ``part`` is feasible and its recomputed cut equals the
    reported one; otherwise the reason it failed."""
    if not feasible(g, part, k, epsilon):
        return "infeasible partition"
    cut = cut_of(g, part)
    if abs(cut - float(reported_cut)) > 1e-9 * max(1.0, abs(cut)):
        return f"reported cut {reported_cut} != recomputed {cut}"
    return None


# ---------------------------------------------------------------------------
# the result record
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one run produced: metrics plus every failed check."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: every failed check, op-level or run-level; empty means correct
    problems: List[str] = field(default_factory=list)
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    def fail_op(self, reason: str) -> None:
        """One op failed or diverged: it counts against ``ok_rate``."""
        self.failed += 1
        self.problems.append(reason)

    def fail_run(self, reason: str) -> None:
        """A run-level check failed (e.g. the cache schedule)."""
        self.problems.append(reason)

    @property
    def ok_rate(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


def derive_seed(seed: int, *path: int) -> int:
    """A stable 31-bit seed for one generated input of workload ``seed``."""
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return int(ss.generate_state(1)[0] & 0x7FFFFFFF)

"""Result records and aggregation for experiments.

The paper reports, per (algorithm, instance, k): average cut, best cut,
average balance and average runtime over 10 repetitions, and aggregates
across instances with the *geometric mean* "in order to give every
instance the same influence" (Section 6).  These helpers implement exactly
that protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["RunRecord", "InstanceSummary", "geometric_mean", "summarize",
           "format_table", "format_trace_summary"]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; zero values are clamped to 1 (a zero cut would
    otherwise annihilate the aggregate — same convention partitioning
    papers use when perfect cuts occur)."""
    vals = [max(float(v), 1.0e-12) for v in values]
    if not vals:
        raise ValueError("geometric mean of empty sequence")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass(frozen=True)
class RunRecord:
    """One partitioning run: the row unit of every results table."""

    algorithm: str
    instance: str
    k: int
    epsilon: float
    cut: float
    balance: float
    time_s: float
    seed: int = 0
    sim_time_s: Optional[float] = None  # simulated parallel makespan
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class InstanceSummary:
    """Aggregation of repeated runs on one (algorithm, instance, k)."""

    algorithm: str
    instance: str
    k: int
    runs: int
    avg_cut: float
    best_cut: float
    avg_balance: float
    avg_time: float
    avg_sim_time: Optional[float] = None


def summarize(records: Iterable[RunRecord]) -> List[InstanceSummary]:
    """Group records by (algorithm, instance, k) and compute the paper's
    per-instance statistics (arithmetic averages within an instance; the
    geometric mean is only used *across* instances)."""
    groups: Dict[tuple, List[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.algorithm, r.instance, r.k), []).append(r)
    out = []
    for (alg, inst, k), rs in sorted(groups.items()):
        sims = [r.sim_time_s for r in rs if r.sim_time_s is not None]
        out.append(
            InstanceSummary(
                algorithm=alg,
                instance=inst,
                k=k,
                runs=len(rs),
                avg_cut=sum(r.cut for r in rs) / len(rs),
                best_cut=min(r.cut for r in rs),
                avg_balance=sum(r.balance for r in rs) / len(rs),
                avg_time=sum(r.time_s for r in rs) / len(rs),
                avg_sim_time=(sum(sims) / len(sims)) if sims else None,
            )
        )
    return out


def format_table(rows: Sequence[Sequence], headers: Sequence[str]) -> str:
    """Plain-text aligned table (the benches print these)."""
    def fmt(x) -> str:
        if isinstance(x, float):
            return f"{x:.3f}" if abs(x) < 100 else f"{x:.1f}"
        return str(x)

    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_trace_summary(trace: Dict) -> str:
    """Human-readable summary of a pipeline trace document.

    ``trace`` is the ``repro.trace/3`` dict produced by
    :meth:`repro.instrument.Tracer.to_dict` (also found in
    ``KappaResult.trace``).  Renders the phase timings, the per-level
    coarsening and refinement tables, the resilience counters of the
    run's ``metrics`` section, and the invariant-check outcome.
    """
    lines: List[str] = []
    meta = trace.get("meta", {})
    if meta:
        head = ", ".join(f"{k}={v}" for k, v in meta.items())
        lines.append(f"trace: {head}")

    def walk(phases, depth: int):
        for p in phases:
            counters = p.get("counters", {})
            extra = ""
            if counters:
                shown = ", ".join(
                    f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in list(counters.items())[:6]
                )
                extra = f"  [{shown}]"
            lines.append("  " * depth
                         + f"{p['name']}: {p['elapsed_s'] * 1e3:.1f}ms{extra}")
            walk(p.get("children", []), depth + 1)

    if trace.get("phases"):
        lines.append("")
        lines.append("phases:")
        walk(trace["phases"], 1)

    levels = trace.get("levels", [])
    coarsen_rows = [
        (lv["level"], lv["n"], lv["m"],
         f"{100.0 * lv['matched_fraction']:.1f}%",
         f"{lv['shrink']:.3f}", lv["coarse_n"], lv["coarse_m"])
        for lv in levels if lv.get("stage") == "coarsen"
    ]
    if coarsen_rows:
        lines.append("")
        lines.append("coarsening levels:")
        lines.append(format_table(
            coarsen_rows,
            ("level", "n", "m", "matched", "shrink", "n'", "m'"),
        ))
    refine_rows = [
        (lv["level"], lv["n"], lv["m"], lv["cut"],
         f"{lv['elapsed_s'] * 1e3:.1f}ms")
        for lv in levels if lv.get("stage") == "refine"
    ]
    if refine_rows:
        lines.append("")
        lines.append("refinement levels (finest last):")
        lines.append(format_table(
            refine_rows, ("level", "n", "m", "cut", "time")
        ))

    # resilience counters are run metrics, not tracer counters
    run_counters = (trace.get("metrics") or {}).get("counters", {})
    resilience = {
        name: value for name, value in run_counters.items()
        if name.startswith(("fault_", "checkpoint_", "recovery_"))
    }
    if resilience:
        lines.append("")
        lines.append("resilience:")
        for name in sorted(resilience):
            value = resilience[name]
            shown = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name}: {shown}")

    inv = trace.get("invariants")
    if inv is not None:
        lines.append("")
        lines.append(
            f"invariants: mode={inv['mode']} checks={inv['checks_run']} "
            f"violations={len(inv['violations'])}"
        )
        for v in inv["violations"]:
            where = f" (level {v['level']})" if "level" in v else ""
            lines.append(f"  VIOLATION {v['check']}{where}: {v['message']}")
    return "\n".join(lines)

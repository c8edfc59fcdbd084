"""The two library workloads: ``seq-road16k`` and ``cluster-p2``.

Both partition the road16k instance (n=16384, m=44709) in a closed loop,
one op at a time, cycling through a fixed list of partition seeds drawn
from the workload seed.  The graph itself is the same on every seed: a
road network's cut depends so much on where its cities fall that a new
graph per seed would swamp every other effect on ``cut_mean``.

* ``seq-road16k`` — ``execution="sequential"``, FAST preset, k=8: the
  library/CLI path (coarsening, initial partitioning, pairwise FM).
* ``cluster-p2`` — ``execution="cluster"`` on the ``process`` engine,
  k=2: one PE per block, two PEs (the SPMD path: parallel matching,
  distributed coloring, band FM, the wire codec, fork + shared memory).

Every time is in reference seconds (``common.ref_factor``): each op's wall
time is scaled by host-speed probes taken just before and after it,
while the program is idle.

Per-layer numbers come from hooks the program already has: the tracer
passed to ``KappaPartitioner.partition`` (phases, levels, kernel
counters through ``kernels.use_tracer``), ``KappaResult.stats`` (per-PE
phase maxima, makespan, message counts) and, for observed cluster runs,
``observability.analyze_trace``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    KERNELS,
    MAX_PARALLEL,
    SETUP_REPEATS,
    Outcome,
    check_partition,
    derive_seed,
    mean,
    median,
    probe,
    quantile,
    ref_factor,
    scale_times,
)

from repro import FAST, KappaPartitioner, Tracer
from repro.generators.suite import LARGE_SUITE
from repro.observability import analyze_trace

#: partition seed of the untimed warm-up op in set-up; a constant, so
#: set-up does the same work on every workload seed
WARMUP_SEED = 0


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    k: int
    execution: str
    engine: Optional[str]
    #: partition seeds per run; also the fewest ops a window may hold, so
    #: ``cut_mean`` and the exact counts always cover the whole list
    seeds: int


WORKLOADS: Dict[str, LibraryWorkload] = {
    # op times vary 3x between partition seeds (0.58-1.75 reference s
    # over 60 seeds), so the median of 20 seeds alone spreads ~11%
    # between workload seeds; 30 seeds is what the time budget allows
    "seq-road16k": LibraryWorkload("seq-road16k", k=8,
                                   execution="sequential", engine=None,
                                   seeds=30),
    "cluster-p2": LibraryWorkload("cluster-p2", k=MAX_PARALLEL,
                                  execution="cluster", engine="process",
                                  seeds=20),
}


@dataclass
class Op:
    seed: int
    wall_s: float             # reference seconds (raw wall until scaled)
    result: object            # KappaResult (trace dropped once digested)
    layers: Dict[str, float]  # per-op layer numbers read from the hooks

    def scale(self, before: float, after: float) -> None:
        """Turn the op's times into reference seconds, given the probes
        taken before and after it."""
        factor = ref_factor(before, after)
        self.wall_s *= factor
        self.layers = scale_times(self.layers, factor)


def build_graph():
    """The road16k instance, built fresh (the suite loader caches it)."""
    return LARGE_SUITE["road16k"].builder()


def partition_seeds(seed: int, count: int) -> List[int]:
    return [derive_seed(seed, i) for i in range(count)]


def setup(wl: LibraryWorkload, seed: int) -> Tuple[object, List[int], float]:
    """Generate the inputs and run one untimed warm-up op; returns the
    graph, the partition seeds and the set-up time (reference seconds)."""
    before = probe()
    t0 = time.perf_counter()
    g = build_graph()
    plist = partition_seeds(seed, wl.seeds)
    KappaPartitioner(FAST).partition(g, wl.k, seed=WARMUP_SEED,
                                     execution=wl.execution,
                                     engine=wl.engine)
    wall = time.perf_counter() - t0
    return g, plist, wall * ref_factor(before, probe())


def _phase_s(doc: Dict, name: str) -> float:
    return sum(p["elapsed_s"] for p in doc["phases"] if p["name"] == name)


#: per-layer name -> top-level phase of a sequential-path trace
_PHASES = {"coarsening.s": "coarsening",
           "initial.s": "initial_partitioning",
           "refinement.s": "uncoarsening",
           "refinement.feasibility_s": "feasibility"}


def trace_layers(doc: Dict) -> Dict[str, float]:
    """Phase, level and kernel numbers of one sequential-path trace."""
    out = {name: _phase_s(doc, phase) for name, phase in _PHASES.items()}
    coarsen = [lvl for lvl in doc["levels"] if lvl.get("stage") == "coarsen"]
    out["coarsening.levels"] = len(coarsen) + 1
    out["coarsening.coarsest_n"] = (coarsen[-1]["coarse_n"] if coarsen
                                    else doc["meta"]["n"])
    out["refinement.level_max_s"] = max(
        (lvl["elapsed_s"] for lvl in doc["levels"]
         if lvl.get("stage") == "refine"), default=0.0)
    counters = doc["counters"]
    for kern in KERNELS:
        out[f"kernels.{kern}.calls"] = counters.get(f"kernel_{kern}_calls",
                                                    0.0)
        out[f"kernels.{kern}.s"] = counters.get(f"kernel_{kern}_s", 0.0)
    return out


def _digest(wl: LibraryWorkload, res, wall_s: float) -> Dict[str, float]:
    """Per-op layer numbers, read from the result and its trace."""
    out: Dict[str, float] = {"coarsening.levels": float(res.levels),
                             "coarsening.coarsest_n": float(res.coarsest_n)}
    stats = res.stats
    if wl.execution == "cluster":
        out.update({
            "spmd.coarsening_max_s": stats["phase_coarsening_max_s"],
            "spmd.initial_max_s": stats["phase_initial_partitioning_max_s"],
            "spmd.refinement_max_s": stats["phase_refinement_max_s"],
            "engine.overhead_s": wall_s - stats["makespan_s"],
            "engine.messages": stats["messages_sent"],
            "engine.bytes": stats["bytes_sent"],
        })
    doc = res.trace
    if doc is None:
        return out
    if wl.execution == "cluster":
        an = analyze_trace(doc)
        pes = an["per_pe"]
        wall = sum(row["wall_s"] for row in pes)
        out.update({
            "observability.critical_path_s": an["critical_path_s"],
            "observability.recv_wait_frac":
                sum(row["recv_wait_s"] for row in pes) / wall,
            "observability.collective_wait_frac":
                sum(row["coll_wait_s"] for row in pes) / wall,
        })
    else:
        out.update(trace_layers(doc))
        out["engine.overhead_s"] = wall_s - sum(
            out[name] for name in _PHASES)
    return out


def _op(wl: LibraryWorkload, partitioner: KappaPartitioner, g, pseed: int,
        tracer: Optional[Tracer]) -> Op:
    t0 = time.perf_counter()
    res = partitioner.partition(g, wl.k, seed=pseed, execution=wl.execution,
                                engine=wl.engine, tracer=tracer)
    wall_s = time.perf_counter() - t0
    layers = _digest(wl, res, wall_s)
    res.trace = res.obs = None  # keep memory flat across the loop
    return Op(pseed, wall_s, res, layers)


def window(wl: LibraryWorkload, g, plist: List[int], seconds: float,
           trace: bool) -> Tuple[List[Op], List[Op]]:
    """Closed loop, one op at a time, a host-speed probe between ops.

    Untraced, it runs until ``seconds`` have passed and every partition
    seed has run once.  Traced, every seed runs once traced, and the
    first third of the seeds also run untraced just before, so the
    tracing overhead compares like with like.  Returns the untraced and
    the traced ops, their times in reference seconds."""
    plain_partitioner = KappaPartitioner(FAST)
    traced_partitioner = KappaPartitioner(
        FAST.derive(observe=True) if wl.execution == "cluster" else FAST)
    plain: List[Op] = []
    traced: List[Op] = []
    last = probe()

    def timed(ops: List[Op], op: Op) -> None:
        nonlocal last
        after = probe()
        op.scale(last, after)
        last = after
        ops.append(op)

    if trace:
        for i, pseed in enumerate(plist):
            if 3 * i < len(plist):
                timed(plain, _op(wl, plain_partitioner, g, pseed, None))
            timed(traced, _op(wl, traced_partitioner, g, pseed, Tracer()))
        return plain, traced
    deadline = time.perf_counter() + seconds
    while len(plain) < len(plist) or time.perf_counter() < deadline:
        pseed = plist[len(plain) % len(plist)]
        timed(plain, _op(wl, plain_partitioner, g, pseed, None))
    return plain, traced


def verify(wl: LibraryWorkload, g, ops: List[Op], outcome: Outcome) -> None:
    """Every op: feasible, recomputed cut equals the reported cut, and a
    repeated seed reproduces the first answer exactly."""
    first: Dict[int, object] = {}
    for op in ops:
        outcome.attempted += 1
        part = op.result.partition.part
        why = check_partition(g, part, wl.k, FAST.epsilon, op.result.cut)
        prev = first.setdefault(op.seed, part)
        if why is None and prev is not part and not (prev == part).all():
            why = "same seed gave a different partition"
        if why is not None:
            outcome.fail_op(f"{wl.name} seed={op.seed}: {why}")


def _layer(ops: List[Op], name: str, how=median) -> float:
    return how([op.layers[name] for op in ops if name in op.layers])


#: layer numbers that are exact counts: averaged over the fixed seed
#: list (so they repeat exactly), every other number is a median
COUNTS = ("coarsening.levels", "coarsening.coarsest_n", "engine.messages",
          "engine.bytes", *[f"kernels.{k}.calls" for k in KERNELS])


def layer_metrics(plain: List[Op], traced: List[Op]) -> Dict[str, float]:
    """Per-layer numbers: those the result carries anyway from the
    untraced ops, the rest from the traced ops.  Both lists hold each
    of their seeds once, so the counts (means over the list) repeat
    exactly; the tracing overhead pairs each untraced op with the traced
    op of the same seed."""
    out: Dict[str, float] = {}
    for ops in (traced, plain):  # untraced values win where both exist
        names = {name for op in ops for name in op.layers}
        for name in names:
            out[name] = _layer(ops, name, how=mean if name in COUNTS
                               else median)
    out["op_p95_s"] = quantile([op.wall_s for op in traced], 0.95)
    out["tracing.overhead_s"] = median(
        [t.wall_s - p.wall_s for p, t in zip(plain, traced)])
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        outcome: Outcome) -> None:
    """One benchmark run of a library workload, metrics into ``outcome``."""
    wl = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        g, plist, setup_s = setup(wl, seed)
        setups.append(setup_s)
    t0 = time.perf_counter()
    ops, traced = window(wl, g, plist, seconds, trace)
    outcome.diagnostics.update(ops=len(ops) + len(traced),
                               window_wall_s=time.perf_counter() - t0)
    verify(wl, g, ops + traced, outcome)
    if trace:
        outcome.metrics.update(layer_metrics(ops, traced))
        return
    times = [op.wall_s for op in ops]
    outcome.metrics.update({
        "setup_s": median(setups),
        "op_p50_s": quantile(times, 0.5),
        "op_p95_s": quantile(times, 0.95),
        "throughput_ops_s": len(ops) / sum(times),
        "cut_mean": mean([op.result.cut for op in ops[:len(plist)]]),
    })

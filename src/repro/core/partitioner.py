"""The KaPPa driver: multilevel partitioning end to end.

Two execution paths share every algorithm kernel (DESIGN.md §5):

* ``execution="sequential"`` — deterministic single-process run used for
  the quality experiments (identical algorithmic decisions, no threads);
* ``execution="cluster"`` — the full SPMD pipeline
  (:func:`~repro.core.spmd.kappa_spmd_program`) with one virtual PE per
  block: parallel two-phase matching (§3.3), all-PEs initial
  partitioning (§4), distributed quotient coloring and pairwise band
  refinement (§5).

The cluster path runs on a pluggable execution engine
(:mod:`repro.engine`): ``sequential`` (deterministic token-passing),
``sim`` (the same token passing plus a cost clock; its makespan is the
simulated parallel runtime used by the Figure 3 reproduction) or
``process`` (one OS process per PE for real wall-clock parallelism).
All engines produce bit-identical partitions for the same master seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

import numpy as np

from .. import kernels
from ..graph.csr import Graph
from ..coarsening.hierarchy import coarsen
from ..initial.runner import initial_partition
from ..instrument import (
    InvariantChecker,
    NULL_TRACER,
    Tracer,
    Violation,
    ensure_tracer,
)
from ..observability import MetricsRegistry, merge_pe_obs, merge_registry_docs
from ..refinement.balance import ensure_feasible
from ..engine import EngineResult, SimulatedEngine, get_engine
from ..parallel.costmodel import DEFAULT_MACHINE, MachineModel
from ..resilience.policy import ResiliencePolicy
from . import metrics
from .config import FAST, KappaConfig
from .objectives import mapping_cost, resolve_topology
from .partition import Partition
from .spmd import kappa_spmd_program, refine

__all__ = ["KappaResult", "KappaPartitioner", "partition_graph"]


@dataclass
class KappaResult:
    """A finished partitioning run with its statistics."""

    partition: Partition
    time_s: float
    sim_time_s: Optional[float] = None  # cluster path: simulated makespan
    levels: int = 0
    coarsest_n: int = 0
    #: cut after refining each level, coarsest first (sequential path) —
    #: the multilevel "cut trajectory" (monotone improvements per level)
    level_cuts: List[float] = field(default_factory=list)
    #: JSON-ready trace document when a live Tracer was passed in
    trace: Optional[Dict] = None
    #: invariant violations collected by the run's InvariantChecker
    #: (always empty in "strict" mode unless the run raised)
    violations: List[Violation] = field(default_factory=list)
    #: the run's one metrics book, a registry export (counters / gauges /
    #: histograms) that ``stats`` views; renders to Prometheus text via
    #: ``repro.observability.prometheus_text``
    metrics: Optional[Dict] = None
    #: merged per-PE observability document (spans / comm_matrix /
    #: metrics) when the run was observed (``config.observe``)
    obs: Optional[Dict] = None

    @property
    def stats(self) -> Mapping[str, float]:
        """Read-only flat view of ``metrics``: its counters and gauges."""
        doc = self.metrics or {}
        return MappingProxyType({**doc.get("counters", {}),
                                 **doc.get("gauges", {})})

    @property
    def cut(self) -> float:
        return self.partition.cut

    @property
    def balance(self) -> float:
        return self.partition.balance


class KappaPartitioner:
    """Multilevel k-way graph partitioner (the paper's KaPPa system).

    >>> from repro.generators import random_geometric_graph
    >>> from repro.core import FAST
    >>> g = random_geometric_graph(1000, seed=0)
    >>> res = KappaPartitioner(FAST).partition(g, k=4)
    >>> res.partition.is_feasible()
    True
    """

    def __init__(self, config: KappaConfig = FAST,
                 machine: MachineModel = DEFAULT_MACHINE) -> None:
        self.config = config
        self.machine = machine

    # ------------------------------------------------------------------
    def partition(self, g: Graph, k: int, seed: Optional[int] = None,
                  execution: str = "sequential",
                  tracer: Optional[Tracer] = None,
                  engine: Optional[str] = None) -> KappaResult:
        """Partition ``g`` into ``k`` blocks.

        ``seed`` overrides the config seed for repeated runs.  Pass a
        live :class:`~repro.instrument.Tracer` to collect a structured
        trace of the run (phases, counters, per-level records); the
        finished document lands in ``KappaResult.trace``.  Invariant
        checking is controlled by ``config.check_invariants``.

        ``engine`` selects the runtime for the cluster path
        ("sequential" | "sim" | "process"), overriding
        ``config.engine``;
        it is ignored by ``execution="sequential"``.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > max(1, g.n):
            raise ValueError("k cannot exceed the number of nodes")
        if execution not in ("sequential", "cluster"):
            raise ValueError(f"unknown execution mode {execution!r}")
        seed = self.config.seed if seed is None else seed
        engine = self.config.engine if engine is None else engine
        tracer = ensure_tracer(tracer)
        checker = InvariantChecker(self.config.check_invariants,
                                   tracer=tracer)
        if tracer.enabled:
            tracer.meta.update(
                n=g.n, m=g.m, k=k, seed=seed, execution=execution,
                config=self.config.name, epsilon=self.config.epsilon,
                check_invariants=self.config.check_invariants,
                kernel_backend=self.config.kernel_backend,
            )
            if execution == "cluster":
                tracer.meta["engine"] = engine
            if self.config.objective != "cut":
                tracer.meta["objective"] = self.config.objective
                if self.config.topology is not None:
                    tracer.meta["topology"] = self.config.topology
        # run every hot-path kernel on the configured backend and let the
        # dispatcher report per-kernel timings into the trace
        with kernels.use_backend(self.config.kernel_backend), \
                kernels.use_tracer(tracer):
            if execution == "cluster":
                res = self._partition_cluster(g, k, seed, tracer, checker,
                                              engine)
            else:
                res = self._partition_sequential(g, k, seed, tracer, checker)
        res.violations = checker.violations
        if tracer.enabled:
            tracer.invariants = checker.report()
            res.trace = tracer.to_dict()
        return res

    # ------------------------------------------------------------------
    def _partition_sequential(self, g: Graph, k: int, seed: int,
                              tracer=NULL_TRACER,
                              checker: Optional[InvariantChecker] = None,
                              ) -> KappaResult:
        cfg = self.config
        t0 = time.perf_counter()
        n_pes = cfg.n_pes if cfg.n_pes is not None else k
        with tracer.phase("coarsening"):
            hierarchy = coarsen(
                g, k,
                rating=cfg.rating,
                matching=cfg.matching,
                alpha=cfg.contraction_alpha,
                min_nodes=cfg.contraction_min_nodes,
                max_levels=cfg.max_levels,
                seed=seed,
                n_pes=1 if k == 1 else min(n_pes, max(1, g.n // 4)),
                prepartition_mode=cfg.prepartition,
                tracer=tracer,
                checker=checker,
            )
        t_coarsen = time.perf_counter()
        with tracer.phase("initial_partitioning"):
            part = initial_partition(
                hierarchy.coarsest, k, cfg.epsilon,
                method=cfg.initial_partitioner,
                repeats=cfg.init_repeats,
                seed=seed,
                tracer=tracer,
            )
        t_initial = time.perf_counter()
        level_cuts = [metrics.cut_value(hierarchy.coarsest, part)]
        with tracer.phase("uncoarsening"):
            for level in range(hierarchy.depth - 1, 0, -1):
                fine_g = hierarchy.graphs[level - 1]
                coarse_part = part
                part = hierarchy.project(part, level)
                if checker is not None:
                    checker.check_projection(
                        fine_g, part, hierarchy.graphs[level], coarse_part,
                        level=level - 1,
                    )
                t_lvl = time.perf_counter()
                part = refine(fine_g, part, k, seed + level, cfg,
                              tracer=tracer)
                cut = metrics.cut_value(fine_g, part)
                level_cuts.append(cut)
                if tracer.enabled:
                    tracer.add_level(
                        level=level - 1, stage="refine", n=fine_g.n,
                        m=fine_g.m, cut=cut,
                        balance=metrics.balance(fine_g, part, k),
                        elapsed_s=time.perf_counter() - t_lvl,
                    )
            if hierarchy.depth == 1:
                t_lvl = time.perf_counter()
                part = refine(g, part, k, seed, cfg, tracer=tracer)
                cut = metrics.cut_value(g, part)
                level_cuts.append(cut)
                if tracer.enabled:
                    tracer.add_level(
                        level=0, stage="refine", n=g.n, m=g.m, cut=cut,
                        balance=metrics.balance(g, part, k),
                        elapsed_s=time.perf_counter() - t_lvl,
                    )
        with tracer.phase("feasibility"):
            part = ensure_feasible(g, part, k, cfg.epsilon, seed,
                                   cfg.epsilons, tracer)
        if checker is not None:
            checker.check_final(g, part, k, cfg.epsilon)
        t_refine = time.perf_counter()
        registry = MetricsRegistry()
        registry.counter("time_coarsen_s").inc(t_coarsen - t0)
        registry.counter("time_initial_s").inc(t_initial - t_coarsen)
        registry.counter("time_refine_s").inc(t_refine - t_initial)
        partition_obj, metrics_doc = self._close_run(g, part, k, registry)
        if tracer.enabled:
            tracer.observability = {"metrics": metrics_doc}
        return KappaResult(
            partition=partition_obj,
            time_s=t_refine - t0,
            levels=hierarchy.depth,
            coarsest_n=hierarchy.coarsest.n,
            level_cuts=level_cuts,
            metrics=metrics_doc,
        )

    def _close_run(self, g: Graph, part: np.ndarray, k: int,
                   registry: MetricsRegistry,
                   res: Optional[EngineResult] = None):
        """Close a run's one metrics book: add the engine's traffic and
        makespan (cluster path), the final cut and balance and, under the
        mapping objective, ``mapping_cost`` to ``registry``, then merge in
        the engine's per-PE document.  Returns ``(Partition, metrics)``."""
        cfg = self.config
        partition_obj = Partition(g, part, k, cfg.epsilon)
        if res is not None:
            registry.counter("bytes_sent").inc(float(res.bytes_sent))
            registry.counter("messages_sent").inc(float(res.messages_sent))
            if res.makespan is not None:
                registry.gauge("makespan_s").set(res.makespan)
        registry.gauge("final_cut").set(float(partition_obj.cut))
        registry.gauge("final_balance").set(float(partition_obj.balance))
        topo = resolve_topology(cfg.objective, cfg.topology, k,
                                machine=self.machine)
        if topo is not None:
            registry.gauge("mapping_cost").set(mapping_cost(g, part, topo))
        return partition_obj, merge_registry_docs(
            [registry.export(), res.metrics if res is not None else None])

    # ------------------------------------------------------------------
    def _partition_cluster(self, g: Graph, k: int, seed: int,
                           tracer=NULL_TRACER,
                           checker: Optional[InvariantChecker] = None,
                           engine: Optional[str] = None) -> KappaResult:
        """Full SPMD pipeline: one virtual PE per block by default, or
        ``config.n_pes < k`` PEs with blocks multiplexed (Section 8).

        The SPMD program (:func:`~repro.core.spmd.kappa_spmd_program`)
        runs once per virtual PE on the selected engine.  It runs once
        per PE, so per-level tracing would multiply every counter by P;
        the cluster path therefore traces at run granularity only and
        validates the final partition.
        """
        cfg = self.config
        t0 = time.perf_counter()
        p = k if cfg.n_pes is None else min(cfg.n_pes, k)
        policy = ResiliencePolicy.from_config(cfg, seed)
        eng = get_engine(engine if engine is not None else cfg.engine, p,
                         machine=self.machine,
                         recv_timeout_s=cfg.recv_timeout_s,
                         resilience=policy)
        with tracer.phase("cluster_run"):
            res = eng.run(kappa_spmd_program, g, k, seed, cfg)
        part, levels, coarsest_n = res.results[0]
        for other, _, _ in res.results[1:]:
            if not np.array_equal(other, part):
                raise AssertionError("PEs finished with inconsistent partitions")
        if checker is not None:
            checker.check_final(g, part, k, cfg.epsilon)
        partition_obj, metrics_doc = self._close_run(
            g, part, k, MetricsRegistry(), res)
        merged_obs = merge_pe_obs(list(res.obs))
        if merged_obs is not None:
            merged_obs["metrics"] = metrics_doc
        if tracer.enabled:
            tracer.meta["pes"] = p
            tracer.meta["engine"] = eng.name
            if cfg.faults:
                tracer.meta["faults"] = cfg.faults
            if cfg.checkpoint_dir:
                tracer.meta["checkpoint_dir"] = cfg.checkpoint_dir
            tracer.observability = merged_obs or {"metrics": metrics_doc}
        return KappaResult(
            partition=partition_obj,
            time_s=time.perf_counter() - t0,
            # simulated parallel time is only meaningful on the sim
            # engine (Figure 3); process/sequential report wall time only
            sim_time_s=(res.makespan
                        if isinstance(eng, SimulatedEngine) else None),
            levels=levels,
            coarsest_n=coarsest_n,
            metrics=metrics_doc,
            obs=merged_obs,
        )


def partition_graph(
    g: Graph,
    k: int,
    config: KappaConfig = FAST,
    seed: Optional[int] = None,
    execution: str = "sequential",
    engine: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> KappaResult:
    """Convenience one-shot API: ``KappaPartitioner(config).partition(...)``."""
    return KappaPartitioner(config).partition(g, k, seed=seed,
                                              execution=execution,
                                              engine=engine, tracer=tracer)

"""Repartitioning from an old partition (paper Section 8 outlook).

"There will also be further issues when KaPPa is generalized for graph
clustering, hypergraph partitioning, or repartitioning."

Whenever a graph changes under a partition — node weights grow in an
adaptive simulation, or a :class:`MutationBatch` of
:mod:`repro.graph.dynamic` inserts and deletes nodes and edges —
recomputing the partition from scratch both wastes time and *migrates*
data arbitrarily.  :func:`incremental_repartition` adapts the old
assignment instead:

1. **seed** the new graph with the previous partition (ids are stable
   across batches — tombstones keep slots, additions append),
2. assign **newly added vertices** (and out-of-range block ids) to the
   majority block of their neighbours (weighted by edge weight;
   lightest block when isolated),
3. **rebalance** if the changes broke the balance constraint,
4. run the paper's **pairwise refinement**
   (:func:`~repro.core.spmd.refine`) confined to
   a BFS band of configurable width around the dirty nodes, so clean
   regions are never touched — with every node dirty this is a plain
   repartitioning of a changed graph, and
5. **fall back** to full multilevel partitioning when quality has
   drifted: cut above ``(1 + drift_threshold) ×`` the last full run's
   cut, or infeasible balance that band-local moves cannot repair.

Every step is deterministic for a given seed; migration volume, dirty
band size and fallback count flow into a
:class:`~repro.observability.MetricsRegistry` so mutation streams are
observable like any other run.  :class:`IncrementalSession` carries the
state (current partition, last-full-run reference cut, metrics) across
a stream of batches — the object behind ``repro dynamic`` and
``benchmarks/bench_incremental.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graph.csr import Graph
from ..kernels import dispatch
from ..observability import MetricsRegistry
from ..refinement.balance import ensure_feasible, is_feasible
from . import metrics
from .config import FAST, KappaConfig
from .partition import Partition
from .partitioner import partition_graph
from .spmd import refine

__all__ = [
    "IncrementalResult",
    "incremental_repartition",
    "IncrementalSession",
    "seed_from_previous",
    "dirty_band_mask",
]


@dataclass
class IncrementalResult:
    """One batch worth of incremental repartitioning."""

    partition: Partition
    time_s: float
    migrated_weight: float      # node weight that changed blocks
    migrated_nodes: int
    dirty_band_nodes: int       # size of the restricted search region
    used_fallback: bool         # full multilevel run was required
    fallback_reason: Optional[str] = None  # "drift" | "balance" | None

    @property
    def cut(self) -> float:
        return self.partition.cut

    @property
    def migration_fraction(self) -> float:
        total = self.partition.graph.total_node_weight()
        return self.migrated_weight / total if total else 0.0


def seed_from_previous(g: Graph, old_part: np.ndarray, k: int) -> np.ndarray:
    """Seed a partition of ``g`` from ``old_part`` of the pre-mutation
    graph.

    Ids are stable under :class:`~repro.graph.dynamic.DynamicGraph`
    batches, so surviving nodes keep their block.  Nodes beyond the old
    partition (appended by the batch) — and any out-of-range block ids —
    are assigned to the **majority block of their neighbours** (total
    incident edge weight, ties to the lower block id), or to the lightest
    block when they have no assigned neighbour.  Assignment runs in id
    order with live block weights, so it is deterministic.
    """
    old_part = np.asarray(old_part, dtype=np.int64)
    part = np.full(g.n, -1, dtype=np.int64)
    m = min(len(old_part), g.n)
    part[:m] = old_part[:m]
    part[(part < 0) | (part >= k)] = -1

    unassigned = np.nonzero(part == -1)[0]
    if len(unassigned) == 0:
        return part
    block_w = metrics.block_weights(g, np.where(part == -1, 0, part), k)
    block_w[0] -= float(g.vwgt[unassigned].sum())
    for v in unassigned:
        v = int(v)
        nbrs = g.neighbors(v)
        wts = g.incident_weights(v)
        assigned = part[nbrs] >= 0
        if assigned.any():
            votes = np.zeros(k, dtype=np.float64)
            np.add.at(votes, part[nbrs[assigned]], wts[assigned])
            target = int(np.argmax(votes))  # argmax ties → lowest id
        else:
            target = int(np.argmin(block_w))
        part[v] = target
        block_w[target] += g.vwgt[v]
    return part


def dirty_band_mask(g: Graph, dirty_nodes: np.ndarray,
                    width: int) -> np.ndarray:
    """Boolean mask of the BFS band of ``width`` around ``dirty_nodes``
    (the ``band_bfs`` kernel with an unrestricted allowed-set)."""
    seeds = np.asarray(dirty_nodes, dtype=np.int64)
    seeds = seeds[(seeds >= 0) & (seeds < g.n)]
    if len(seeds) == 0:
        return np.zeros(g.n, dtype=bool)
    level = dispatch("band_bfs", g, seeds, np.ones(g.n, dtype=bool), width)
    return level >= 0


def incremental_repartition(
    g: Graph,
    old_part: np.ndarray,
    k: int,
    dirty_nodes: np.ndarray,
    config: KappaConfig = FAST,
    seed: int = 0,
    reference_cut: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
) -> IncrementalResult:
    """Adapt ``old_part`` to the changed graph ``g``, re-refining only a
    band around ``dirty_nodes`` (``np.arange(g.n)`` refines everywhere).

    ``old_part`` has one block id per node of the graph it was computed
    for; it may be shorter than ``g.n`` (the nodes beyond it were
    appended) but not longer, and it must be 1-D (``ValueError``).

    ``reference_cut`` is the cut of the last *full* run on this stream;
    when the incremental result drifts above
    ``(1 + config.drift_threshold) × reference_cut`` (or balance cannot
    be repaired band-locally), the function falls back to a full
    multilevel run — callers should then refresh their reference
    (:class:`IncrementalSession` does).  Metrics (migrated weight, dirty
    band size, fallback count) are recorded on ``registry`` when given.
    """
    t0 = time.perf_counter()
    old_part = np.asarray(old_part, dtype=np.int64)
    if old_part.ndim != 1 or len(old_part) > g.n:
        raise ValueError(
            f"old partition must be a 1-D vector of at most n={g.n} "
            f"entries, got shape {old_part.shape}")
    part = seed_from_previous(g, old_part, k)
    part = ensure_feasible(g, part, k, config.epsilon, seed, config.epsilons)

    band = dirty_band_mask(g, dirty_nodes, config.incremental_band_width)
    n_band = int(band.sum())
    part = refine(g, part, k, seed, config, within=band)

    cut = metrics.cut_value(g, part)
    fallback_reason = None
    if not is_feasible(g, part, k, config.epsilon, config.epsilons):
        fallback_reason = "balance"
    elif (reference_cut is not None
          and cut > (1.0 + config.drift_threshold) * reference_cut):
        fallback_reason = "drift"

    if fallback_reason is not None:
        full = partition_graph(g, k, config=config, seed=seed)
        part = full.partition.part
        cut = full.cut

    moved_span = min(len(old_part), g.n)
    moved = part[:moved_span] != old_part[:moved_span]
    migrated_weight = float(g.vwgt[:moved_span][moved].sum())
    migrated_nodes = int(moved.sum())

    if registry is not None:
        registry.counter("incremental_batches").inc()
        registry.counter("incremental_migrated_weight").inc(migrated_weight)
        registry.counter("incremental_migrated_nodes").inc(migrated_nodes)
        registry.gauge("incremental_dirty_band_nodes").set(n_band)
        registry.gauge("incremental_last_cut").set(cut)
        if fallback_reason is not None:
            registry.counter("incremental_fallbacks").inc()
            registry.counter(
                f"incremental_fallbacks_{fallback_reason}").inc()

    return IncrementalResult(
        partition=Partition(g, part, k, config.epsilon),
        time_s=time.perf_counter() - t0,
        migrated_weight=migrated_weight,
        migrated_nodes=migrated_nodes,
        dirty_band_nodes=n_band,
        used_fallback=fallback_reason is not None,
        fallback_reason=fallback_reason,
    )


@dataclass
class IncrementalSession:
    """Carries incremental state across a mutation stream.

    >>> session = IncrementalSession.start(g, k=8, config=FAST, seed=0)
    >>> res = session.apply(dyn.graph(), batch_result.dirty_nodes)

    ``start`` runs the initial full partition (setting the drift
    reference); each ``apply`` call repartitions incrementally and
    refreshes the reference whenever the fallback path ran.  All batches
    share one :class:`MetricsRegistry` (``session.registry``).
    """

    k: int
    config: KappaConfig
    seed: int
    part: np.ndarray
    reference_cut: float
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    batches: int = 0

    @classmethod
    def start(cls, g: Graph, k: int, config: KappaConfig = FAST,
              seed: int = 0) -> "IncrementalSession":
        full = partition_graph(g, k, config=config, seed=seed)
        session = cls(k=k, config=config, seed=seed,
                      part=full.partition.part.copy(),
                      reference_cut=full.cut)
        session.registry.gauge("incremental_last_cut").set(full.cut)
        return session

    def apply(self, g: Graph, dirty_nodes: np.ndarray) -> IncrementalResult:
        """Repartition the mutated graph ``g`` incrementally."""
        self.batches += 1
        res = incremental_repartition(
            g, self.part, self.k, dirty_nodes,
            config=self.config,
            seed=self.seed + self.batches,
            reference_cut=self.reference_cut,
            registry=self.registry,
        )
        self.part = res.partition.part.copy()
        if res.used_fallback:
            self.reference_cut = res.cut
        return res

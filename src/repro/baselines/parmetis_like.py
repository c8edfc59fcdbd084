"""A parMetis-style parallel partitioner.

parMetis is "probably the fastest available parallel code.  However, its
partitioning quality is worse than the sequential version kMetis.  In
general it seems to be the case that previous parallelizations came with a
penalty in partitioning quality." (paper Section 7).  Table 4/16–20 show
the penalty concretely: ~30 % larger cuts than KaPPa-strong, balance
violations (avg. balance 1.04–1.07 at ε = 3 %), and Figure 3 shows its
scalability flattening around 100 PEs.

This from-scratch implementation reproduces the *mechanisms* behind those
observations:

* coarsening matches only PE-locally (no gap-graph phase), so matchings
  near partition borders are lost;
* refinement applies *batched* greedy k-way rounds: all PEs decide moves
  against the stale round-start partition and apply them simultaneously,
  which both degrades quality and overshoots the balance constraint;
* the simulated runtime follows the parMetis communication structure —
  per-level all-to-alls whose O(P) software overhead eventually dominates
  the shrinking per-PE work, producing the Figure 3 flattening.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from ..graph.csr import Graph
from ..coarsening.contract import contract_matching
from ..coarsening.hierarchy import Hierarchy, contraction_threshold
from ..coarsening.matching.parallel import parallel_matching
from ..coarsening.prepartition import prepartition
from ..core import metrics
from ..core.partition import Partition
from ..core.partitioner import KappaResult
from ..initial.recursive import recursive_bisection
from ..parallel.costmodel import DEFAULT_MACHINE, MachineModel

__all__ = ["parmetis_like_partition", "batched_kway_round"]


def batched_kway_round(
    g: Graph,
    part: np.ndarray,
    k: int,
    lmax: float,
    rng: np.random.Generator,
    slack: float = 1.015,
    sample: float = 0.5,
) -> int:
    """One bulk-synchronous refinement round: every boundary node picks
    its best target against the *round-start* partition; all moves apply
    at once.  Gains are stale, only a ``sample`` fraction of the boundary
    is considered per round (PEs process their interface pieces, not the
    whole boundary), and block weights can overshoot ``lmax`` by up to
    ``slack`` — together the parMetis quality/balance penalty."""
    old_part = part.copy()
    block_w = metrics.block_weights(g, old_part, k)
    boundary = metrics.boundary_nodes(g, old_part)
    moved = 0
    order = rng.permutation(len(boundary))
    order = order[: max(1, int(sample * len(order)))]
    for idx in order:
        v = int(boundary[idx])
        bv = int(old_part[v])
        nbrs = g.neighbors(v)
        wts = g.incident_weights(v)
        conn: dict = {}
        for u, w in zip(nbrs, wts):
            conn[int(old_part[u])] = conn.get(int(old_part[u]), 0.0) + float(w)
        internal = conn.get(bv, 0.0)
        best_b, best_gain = bv, 0.0
        for blk, cw in conn.items():
            if blk == bv:
                continue
            if block_w[blk] + g.vwgt[v] > slack * lmax:
                continue
            if cw - internal > best_gain:
                best_b, best_gain = blk, cw - internal
        if best_b != bv:
            part[v] = best_b
            block_w[bv] -= g.vwgt[v]       # weights tracked optimistically,
            block_w[best_b] += g.vwgt[v]   # but gains stay stale (old_part)
            moved += 1
    return moved


def parmetis_like_partition(
    g: Graph,
    k: int,
    epsilon: float = 0.03,
    seed: int = 0,
    n_pes: Optional[int] = None,
    refine_rounds: int = 2,
    machine: MachineModel = DEFAULT_MACHINE,
) -> KappaResult:
    """Partition with the parMetis-style parallel pipeline.

    ``sim_time_s`` is the modelled parallel makespan for ``n_pes``
    (default ``k``) PEs, derived from the per-level sizes this very run
    produced and the machine model — the quantity plotted in Figure 3.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = k if n_pes is None else n_pes
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    # -- coarsening: local-only matching over the *numbering* partition
    # (parMetis distributes the graph by initial node numbering; the
    # geometric prepartition is a KaPPa contribution it does not have)
    owner = prepartition(g, max(p, 1), mode="numbering")
    threshold = contraction_threshold(g.n, k, 60.0)
    graphs = [g]
    maps = []
    current = g
    level_sizes = []
    for level in range(50):
        if current.n <= threshold or current.m == 0:
            break
        local_owner = owner
        m = _local_only_matching(current, local_owner, p, seed + level)
        coarse, cmap = contract_matching(current, m)
        if coarse.n > 0.95 * current.n:
            break
        level_sizes.append(current.m)
        graphs.append(coarse)
        maps.append(cmap)
        new_owner = np.zeros(coarse.n, dtype=np.int64)
        new_owner[cmap] = owner
        owner = new_owner
        current = coarse
    hierarchy = Hierarchy(graphs=graphs, maps=maps)

    # -- initial partitioning (gathered to every PE, serial) ------------
    part = recursive_bisection(hierarchy.coarsest, k, epsilon, seed=seed)

    # -- batched refinement ----------------------------------------------
    lmax = metrics.lmax(g, k, epsilon)
    refine_sizes = []
    for level in range(hierarchy.depth - 1, 0, -1):
        part = hierarchy.project(part, level)
        fine = hierarchy.graphs[level - 1]
        level_lmax = metrics.lmax(fine, k, epsilon)
        for _ in range(refine_rounds):
            if batched_kway_round(fine, part, k, level_lmax, rng) == 0:
                break
        refine_sizes.append(fine.m)
    if hierarchy.depth == 1:
        batched_kway_round(g, part, k, lmax, rng)
        refine_sizes.append(g.m)
    # NOTE: no final rebalance — parMetis ships infeasible partitions
    # (Tables 16/18/20 report avg. balance up to 1.07 at epsilon = 3 %).

    elapsed = time.perf_counter() - t0
    sim = _simulated_makespan(level_sizes, refine_sizes,
                              hierarchy.coarsest.m, p, machine)
    return KappaResult(
        partition=Partition(g, part, k, epsilon),
        time_s=elapsed,
        sim_time_s=sim,
        levels=hierarchy.depth,
        coarsest_n=hierarchy.coarsest.n,
    )


def _local_only_matching(g: Graph, owner: np.ndarray, p: int,
                         seed: int) -> np.ndarray:
    """SHEM restricted to PE-local edges — the gap graph is ignored."""
    from ..coarsening.matching.parallel import _apply_pairs, _local_matching

    matching = np.arange(g.n, dtype=np.int64)
    for r in range(p):
        rng = np.random.default_rng((seed, r))
        _apply_pairs(matching, _local_matching(
            g, np.nonzero(owner == r)[0], "shem", "weight", rng))
    return matching


def _simulated_makespan(coarsen_m, refine_m, coarsest_m, p,
                        machine: MachineModel) -> float:
    """parMetis-style cost model: per-PE work shrinks as 1/P, but every
    level pays an all-to-all whose software overhead grows linearly in P
    (message startup on P−1 channels) — the classic scalability ceiling."""
    t = 0.0
    for m in coarsen_m:
        t += machine.compute_time(4.0 * m / p)
        t += machine.collective_time(p, 16 * max(1, m // max(p, 1)))
        t += (p - 1) * machine.latency_s  # personalised all-to-all startup
    for m in refine_m:
        t += machine.compute_time(6.0 * m / p)
        t += machine.collective_time(p, 16 * max(1, m // max(p, 1)))
        t += (p - 1) * machine.latency_s
    # initial partitioning is replicated serial work on the coarsest graph
    t += machine.compute_time(20.0 * coarsest_m)
    return t

"""The KaPPa SPMD program: the full pipeline as one ``fn(comm, ...)``.

This is the single source of truth for the parallel execution path.  It
is written purely against the :class:`~repro.engine.base.Comm` protocol
and therefore runs unchanged on every engine — sequential (token-passing
determinism), sim (the same token passing plus a cost clock) and
process (one OS process per PE).  The cross-engine equivalence suite
leans on exactly that: same program + same master seed ⇒
bit-identical partition everywhere.

Kept at module level (not a ``KappaPartitioner`` method) so the process
engine can ship it to workers under any start method, and so the kernel
backend is (re-)entered *inside* the program: process-engine workers do
not inherit the parent's backend context under ``spawn``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import kernels
from ..coarsening.contract import contract_matching
from ..coarsening.hierarchy import Hierarchy, contraction_threshold
from ..coarsening.matching.parallel import parallel_matching_spmd
from ..coarsening.prepartition import prepartition
from ..engine.base import Comm
from ..graph.csr import Graph
from ..initial.runner import initial_partition_spmd
from ..instrument.tracer import NULL_TRACER
from ..observability import maybe_span, observe_comm
from ..refinement.balance import ensure_feasible
from ..refinement.pairwise import pairwise_refinement
from ..resilience.runtime import (
    pack_coarsening,
    spmd_resilience,
    unpack_coarsening,
)
from .config import KappaConfig
from .objectives import resolve_topology

__all__ = ["kappa_spmd_program", "refine"]


def kappa_spmd_program(comm: Comm, g: Graph, k: int, seed: int,
                       cfg: KappaConfig):
    """One virtual PE's share of a full KaPPa run.

    Returns ``(partition, depth, coarsest_n)``; every PE returns the
    same values because all decisions flow through deterministic
    collectives and ``comm.derive_rng``.  Phase wall-clock per PE is
    recorded through ``comm.timed`` into ``comm.metrics`` and surfaces
    in ``EngineResult.metrics`` as ``phase_<name>_max_s``.

    Resilience (``cfg.faults`` / ``cfg.checkpoint_dir``) threads through
    the phase boundaries: each boundary heartbeats, fires any injected
    crash/hang, and checkpoints the phase's output.  On resume, completed
    phases are restored instead of recomputed; because every phase
    derives its randomness fresh from the master seed (``seed``,
    ``seed + level``), a resumed run is bit-identical to an uninterrupted
    one.  With resilience off, ``rz`` is a shared no-op.
    """
    # attach per-PE telemetry when cfg.observe; beyond spans and the comm
    # matrix the recorder keeps the causal event log (schema /3) whose
    # DAG is identical on every engine — the program below must stay
    # deterministic in its send/recv/collective order per rank for that
    # to hold (the cross-engine suite asserts it)
    observe_comm(comm, cfg)
    rz = spmd_resilience(comm, g, k, seed, cfg)
    # every run reports the phase gauges, 0.0 when a restored ``final``
    # skips the phases
    for phase in ("coarsening", "initial_partitioning", "refinement"):
        comm.metrics.gauge(f"phase_{phase}_max_s")
    final = rz.restore("final")
    if final is not None:
        return (np.asarray(final["part"]), int(final["depth"]),
                int(final["coarsest_n"]))
    with kernels.use_backend(cfg.kernel_backend):
        with comm.timed("coarsening"):
            state = rz.restore("coarsening")
            if state is None:
                hierarchy, owner = _coarsen_spmd(comm, g, k, seed, cfg)
                rz.boundary("coarsening",
                            state=(pack_coarsening(hierarchy, owner)
                                   if rz.enabled else None))
            else:
                hierarchy, owner = unpack_coarsening(state, g)
        with comm.timed("initial_partitioning"):
            state = rz.restore("initial")
            if state is None:
                part = initial_partition_spmd(
                    comm, hierarchy.coarsest, k, cfg.epsilon,
                    method=cfg.initial_partitioner,
                    repeats=cfg.init_repeats,
                    seed=seed,
                )
                rz.boundary("initial", state={"part": part})
            else:
                part = np.asarray(state["part"])
        with comm.timed("refinement"):
            start_level = hierarchy.depth - 1
            resume = rz.latest_refine()
            if resume is not None:
                start_level, state = resume
                part = np.asarray(state["part"])
            for level in range(start_level, 0, -1):
                with maybe_span(comm, f"refine:level{level - 1}"):
                    part = hierarchy.project(part, level)
                    part = refine(hierarchy.graphs[level - 1], part, k,
                                  seed + level, cfg, comm=comm)
                rz.boundary(f"refine:level{level - 1}",
                            state={"part": part, "level": level - 1})
            if hierarchy.depth == 1 and resume is None:
                with maybe_span(comm, "refine:level0"):
                    part = refine(g, part, k, seed, cfg, comm=comm)
                rz.boundary("refine:level0",
                            state={"part": part, "level": 0})
            part = ensure_feasible(g, part, k, cfg.epsilon, seed,
                                   cfg.epsilons)
    rz.boundary("final", state={"part": part, "depth": hierarchy.depth,
                                "coarsest_n": hierarchy.coarsest.n})
    return part, hierarchy.depth, hierarchy.coarsest.n


def _coarsen_spmd(comm: Comm, g: Graph, k: int, seed: int,
                  cfg: KappaConfig):
    """Parallel coarsening (§3.3): two-phase matching + contraction."""
    owner = prepartition(g, comm.size, cfg.prepartition)
    threshold = contraction_threshold(
        g.n, k, cfg.contraction_alpha, cfg.contraction_min_nodes
    )
    graphs: List[Graph] = [g]
    maps: List[np.ndarray] = []
    current = g
    for level in range(cfg.max_levels):
        if current.n <= threshold or current.m == 0:
            break
        m = parallel_matching_spmd(
            comm, current, owner,
            algorithm=cfg.matching, rating=cfg.rating,
            seed=seed + level,
        )
        coarse, cmap = contract_matching(current, m)
        comm.compute(current.m / comm.size)  # distributed contraction
        if coarse.n > 0.95 * current.n:
            break
        graphs.append(coarse)
        maps.append(cmap)
        new_owner = np.zeros(coarse.n, dtype=np.int64)
        new_owner[cmap] = owner
        owner = new_owner
        current = coarse
    return Hierarchy(graphs=graphs, maps=maps), owner


def refine(g: Graph, part: np.ndarray, k: int, seed: int,
           cfg: KappaConfig, comm: Optional[Comm] = None,
           within: Optional[np.ndarray] = None,
           tracer=NULL_TRACER) -> np.ndarray:
    """Pairwise band refinement (§5) of ``part`` on ``g`` with ``cfg``'s
    settings: the one mapping of a config onto
    :func:`~repro.refinement.pairwise.pairwise_refinement`, for the
    sequential pipeline, this SPMD program (``comm``) and the
    incremental repartitioner (``within``).  Without a ``comm`` the
    edge-coloring schedule uses the fast greedy coloring; with one,
    every PE replays the distributed coloring."""
    if k == 1:
        return part
    return pairwise_refinement(
        g, part, k,
        epsilon=cfg.epsilon,
        bfs_depth=cfg.bfs_band_depth,
        alpha=cfg.fm_alpha,
        queue_selection=cfg.queue_selection,
        local_iterations=cfg.local_iterations,
        max_global_iterations=cfg.max_global_iterations,
        stop_rule=cfg.stop_rule,
        seed=seed,
        coloring="greedy" if comm is None else "distributed",
        matching_selection=cfg.matching_selection,
        pair_algorithm=cfg.refine_algorithm,
        epsilons=cfg.epsilons,
        topology=resolve_topology(cfg.objective, cfg.topology, k),
        within=within,
        comm=comm,
        tracer=tracer,
    )

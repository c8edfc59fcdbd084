"""Pairwise refinement over the quotient graph (paper Section 5).

"At any time, each PE may work on one pair of neighboring blocks
performing a local search constrained to moving nodes between these two
blocks. […] We use matchings of Q to define with which neighbor in Q a PE
is working at a particular point in time.  If {u, v} is in the matching,
both corresponding PEs will refine the partitions u and v using different
seeds for their random number generator.  After the local search is
finished, the better partitioning of the two blocks is adopted. […] A
local iteration repeats this local search.  A global iteration iterates
over the colors of an edge coloring.  The loops terminate when either no
improvement was found (in strong variants: when no improvement was found
twice in a row) or when a preset maximum number of iterations is
exceeded."

Two drivers share the :func:`refine_pair` kernel:

* :func:`pairwise_refinement` — deterministic sequential execution;
* :func:`pairwise_refinement_spmd` — the same algorithm as an SPMD
  program against the :class:`~repro.engine.base.Comm` protocol (one
  block per PE, or several when k > P; runs on any execution engine),
  with real band exchange between partners.

With the distributed coloring selected on the sequential side, both
drivers produce identical partitions for identical seeds, for any PE
count.

Both drivers run one color class in the same shape.  The pairs of a
color are block-disjoint, so their refinements cannot interact: each
local iteration extracts the bands of all live pairs with one
:func:`~repro.refinement.band.extract_bands` call, refines every pair on
its band (``refine_pair(..., band=band)``), and drops the pairs that did
not change.  Block sizes come from one ``bincount`` per color, and gains
and moves are booked in pair-major order, so the sums and tracer
counters equal those of refining each pair to completion in turn.  The
SPMD driver sends each partner exactly the band it refines.  Under the
mapping objective a pair's gain bias reads its third-block neighbours,
whose blocks other pairs of the color change, so the sequential driver
then takes the pairs of a color one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.base import Comm
from ..graph.csr import Graph
from ..graph.quotient import quotient_graph
from ..core import metrics
from ..instrument.tracer import NULL_TRACER
from ..parallel.coloring import distributed_edge_coloring_spmd
from .band import Band, extract_bands
from .fm import FMSearch

__all__ = ["PairResult", "refine_pair", "pairwise_refinement",
           "pairwise_refinement_spmd"]


@dataclass
class PairResult:
    """Outcome of refining one block pair.

    ``gain`` is measured in the active objective's units: cut weight for
    the cut objective, communication-volume × distance for the mapping
    objective (when a topology distance matrix is given).
    """

    gain: float
    imbalance_delta: float
    changed: List[Tuple[int, int]]  # (node, new block)
    band_nodes: int
    boundary: int
    moves_tried: int = 0   # FM moves attempted across both seeded runs
    moves_applied: int = 0  # node moves surviving adoption (== len(changed))


def _mapping_bias(
    g: Graph, part: np.ndarray, band: Band, a: int, b: int,
    dist: np.ndarray,
) -> np.ndarray:
    """Per-band-node additive gain from edges into *third* blocks.

    Under the cut objective those edges stay cut whichever of {a, b} the
    node sits in, so pair FM can ignore them.  Under the mapping
    objective their cost is ω(e)·D[block(u), block(v)], which changes
    when the node switches sides:

        bias(v) = Σ_{(v,w): block(w) ∉ {a,b}} ω(v,w)·(D[s,·] − D[t,·])

    with s the node's current block and t the other.  The bias is static
    over one FM pass (each node moves at most once), so it is computed
    once per band here and handed to FM as ``gain_bias``.
    """
    parents = band.smap.to_parent
    bias = np.zeros(band.graph.n, dtype=np.float64)
    for i in np.nonzero(band.movable)[0]:
        v = int(parents[i])
        pw = part[g.neighbors(v)]
        third = (pw != a) & (pw != b)
        if not third.any():
            continue
        s, t = (b, a) if band.side[i] else (a, b)
        ws = g.incident_weights(v)[third]
        bias[i] = float(
            (ws * (dist[s, pw[third]] - dist[t, pw[third]])).sum()
        )
    return bias


def _constraint_setup(
    g: Graph,
    part: np.ndarray,
    k: int,
    epsilon: float,
    epsilons: Optional[Sequence[float]],
):
    """Resolve the per-dimension balance bookkeeping for a driver.

    Returns ``(lmax0, aux_block_w, aux_lmax)`` — the first dimension's
    L_max plus, for multi-constraint graphs, the ``(k, c-1)`` block-weight
    matrix of the extra dimensions and their per-dimension ceilings.
    """
    c = g.n_constraints
    if epsilons is None:
        eps = np.full(c, float(epsilon))
    else:
        eps = np.asarray(epsilons, dtype=np.float64)
        if eps.shape != (c,):
            raise ValueError(
                f"epsilons must give one value per constraint dimension: "
                f"expected shape ({c},), got {eps.shape}"
            )
    lmax0 = metrics.lmax(g, k, float(eps[0]))
    if c == 1:
        return lmax0, None, None
    aux_block_w = np.zeros((k, c - 1))
    np.add.at(aux_block_w, part, g.vwgts[:, 1:])
    totals = g.total_node_weights()
    maxima = g.max_node_weights()
    aux_lmax = (1.0 + eps[1:]) * totals[1:] / k + maxima[1:]
    return lmax0, aux_block_w, aux_lmax


def refine_pair(
    g: Graph,
    part: np.ndarray,
    block_w: np.ndarray,
    a: int,
    b: int,
    lmax: float,
    depth: int,
    alpha: float,
    queue_selection: str,
    seed_a: int,
    seed_b: int,
    block_sizes: Tuple[int, int],
    algorithm: str = "fm",
    within: Optional[np.ndarray] = None,
    dist: Optional[np.ndarray] = None,
    aux_block_w: Optional[np.ndarray] = None,
    aux_lmax: Optional[np.ndarray] = None,
    band: Optional[Band] = None,
) -> PairResult:
    """Refine the pair (a, b): extract the band, run the local searches,
    and adopt the best result.  ``part`` and ``block_w`` (and
    ``aux_block_w`` when given) are updated in place.  ``band`` passes
    in the pair's band when the caller already extracted it (the drivers
    extract a whole color class at once with :func:`extract_bands`);
    it must be the band of the current ``part``.

    ``algorithm`` selects the pair-local search: ``"fm"`` (the paper's
    two seeded FM runs), ``"flow"`` (the Section 8 min-cut-through-the-
    band refiner), or ``"fm_flow"`` (all three candidates compete).
    ``within`` optionally restricts the extracted band (and hence every
    move) to a node mask — the incremental repartitioner's dirty band.

    ``dist`` (a k×k block distance matrix) switches the pair search to
    the topology-aware mapping objective: within-pair gains are scaled
    by ``dist[a, b]`` and third-block edges contribute a per-node bias
    (see :func:`_mapping_bias`).  The flow candidate only understands
    the cut objective and is skipped under mapping.  ``aux_block_w``
    (``(k, c-1)``) and ``aux_lmax`` (``(c-1,)``) enforce the extra
    balance-constraint dimensions of a multi-constraint graph.
    """
    if algorithm not in ("fm", "flow", "fm_flow"):
        raise ValueError(f"unknown pair refinement algorithm {algorithm!r}")
    if band is None:
        band = extract_bands(g, part, [(a, b)], depth, within=within)[0]
    if band.graph.n == 0 or band.graph.m == 0 or not band.movable.any():
        return PairResult(0.0, 0.0, [], 0, band.n_boundary)

    wa, wb = float(block_w[a]), float(block_w[b])
    have_aux = aux_block_w is not None and g.n_constraints > 1
    if have_aux:
        aux = band.graph.vwgts[:, 1:]
        awa = aux_block_w[a].astype(np.float64, copy=True)
        awb = aux_block_w[b].astype(np.float64, copy=True)
        alim = np.asarray(aux_lmax, dtype=np.float64)

        def aux_after(new_side):
            moved = band.movable & (new_side != band.side)
            d = aux[moved]
            to_b = new_side[moved] == 1
            gone_a = d[to_b].sum(axis=0)   # mass moving a → b
            gone_b = d[~to_b].sum(axis=0)  # mass moving b → a
            return awa - gone_a + gone_b, awb + gone_a - gone_b

    def pair_imbalance(w0, w1, new_side=None):
        imb = max(0.0, max(w0, w1) - lmax)
        if have_aux:
            aw0, aw1 = (awa, awb) if new_side is None else aux_after(new_side)
            imb = max(imb,
                      float(np.max(aw0 - alim, initial=0.0)),
                      float(np.max(aw1 - alim, initial=0.0)))
        return imb

    before_imb = pair_imbalance(wa, wb)

    scale = None
    bias = None
    if dist is not None:
        scale = float(dist[a, b])
        bias = _mapping_bias(g, part, band, a, b, dist)

    candidates = []
    moves_tried = 0
    if algorithm in ("fm", "fm_flow"):
        # both seeded runs share one list-native view of the band
        search = FMSearch(band.graph, band.side, movable=band.movable,
                          edge_scale=scale, gain_bias=bias,
                          aux_weights=aux if have_aux else None)
        for seed in (seed_a, seed_b):
            res = search.run(
                np.random.default_rng(seed),
                weight_a=wa,
                weight_b=wb,
                lmax=lmax,
                alpha=alpha,
                queue_selection=queue_selection,
                block_sizes=block_sizes,
                aux_weight_a=awa if have_aux else None,
                aux_weight_b=awb if have_aux else None,
                aux_lmax_a=alim if have_aux else None,
                aux_lmax_b=alim if have_aux else None,
            )
            after_imb = pair_imbalance(res.weight_a, res.weight_b, res.side)
            moves_tried += res.moves_tried
            candidates.append(((after_imb, -res.gain), res.side))
    if algorithm in ("flow", "fm_flow") and dist is None:
        from .flow import flow_cut_for_band
        from .gain import cut_between_sides

        flow_res = flow_cut_for_band(band)
        if flow_res is not None:
            value, flow_side = flow_res
            cut_before = cut_between_sides(band.graph, band.side)
            moved_mask = band.movable & (flow_side != band.side)
            delta = g.vwgt[band.smap.to_parent[moved_mask]]
            to_b = flow_side[moved_mask] == 1
            fwa = wa - float(delta[to_b].sum()) + float(delta[~to_b].sum())
            fwb = wb + float(delta[to_b].sum()) - float(delta[~to_b].sum())
            after_imb = pair_imbalance(fwa, fwb, flow_side)
            candidates.append(((after_imb, value - cut_before), flow_side))
    if not candidates:
        return PairResult(0.0, 0.0, [], band.graph.n, band.n_boundary,
                          moves_tried=moves_tried)
    key, winner_side = min(candidates, key=lambda kr: tuple(kr[0]))
    if key >= (before_imb, 0.0):
        return PairResult(0.0, 0.0, [], band.graph.n, band.n_boundary,
                          moves_tried=moves_tried)

    changed: List[Tuple[int, int]] = []
    flipped = np.nonzero(band.movable & (winner_side != band.side))[0]
    for i in flipped:
        v = int(band.smap.to_parent[i])
        new_block = b if winner_side[i] == 1 else a
        changed.append((v, new_block))
        block_w[part[v]] -= g.vwgt[v]
        block_w[new_block] += g.vwgt[v]
        if have_aux:
            aux_block_w[part[v]] -= g.vwgts[v, 1:]
            aux_block_w[new_block] += g.vwgts[v, 1:]
        part[v] = new_block
    return PairResult(
        gain=-key[1],
        imbalance_delta=key[0] - before_imb,
        changed=changed,
        band_nodes=band.graph.n,
        boundary=band.n_boundary,
        moves_tried=moves_tried,
        moves_applied=len(changed),
    )


def _pair_seed(seed: int, git: int, lit: int, a: int, b: int, who: int) -> int:
    """Canonical per-search seed so the sequential and SPMD drivers make
    identical random decisions."""
    return hash((seed, git, lit, a, b, who)) & 0x7FFFFFFF


def pairwise_refinement(
    g: Graph,
    part: np.ndarray,
    k: int,
    epsilon: float = 0.03,
    bfs_depth: int = 5,
    alpha: float = 0.05,
    queue_selection: str = "top_gain",
    local_iterations: int = 3,
    max_global_iterations: int = 15,
    stop_rule: str = "no_change",
    seed: int = 0,
    coloring: str = "greedy",
    matching_selection: str = "edge_coloring",
    pair_algorithm: str = "fm",
    epsilons: Optional[Sequence[float]] = None,
    topology=None,
    tracer=NULL_TRACER,
) -> np.ndarray:
    """Sequential driver: iterate over the rounds of a pair schedule of
    Q, refining every pair.  Returns the refined partition vector.

    ``matching_selection`` picks the Section 5.1 strategy:
    ``"edge_coloring"`` (the adopted default) or ``"random_local"``.
    For the coloring strategy, ``coloring="greedy"`` uses the fast
    sequential coloring while ``coloring="distributed"`` runs the
    distributed algorithm (on a simulated cluster), which makes this
    driver bit-identical to :func:`pairwise_refinement_spmd` for the same
    seed.  ``tracer`` accumulates refinement counters (pairs refined, FM
    moves attempted/accepted, total gain, iteration counts).

    ``epsilons`` gives one balance tolerance per constraint dimension of
    a multi-constraint graph (default: ``epsilon`` for every dimension);
    ``topology`` (a :class:`~repro.core.objectives.Topology`) switches
    every pair search to the topology-aware mapping objective.
    """
    if coloring not in ("greedy", "distributed"):
        raise ValueError(f"unknown coloring mode {coloring!r}")
    from .scheduling import SCHEDULES, schedule_rounds

    if matching_selection not in SCHEDULES:
        raise ValueError(
            f"unknown matching selection {matching_selection!r}; "
            f"choose from {SCHEDULES}"
        )
    part = np.asarray(part, dtype=np.int64).copy()
    lmax, aux_block_w, aux_lmax = _constraint_setup(
        g, part, k, epsilon, epsilons)
    block_w = metrics.block_weights(g, part, k)
    dist = None if topology is None else topology.distance_matrix()

    no_change_streak = 0
    for git in range(max_global_iterations):
        q = quotient_graph(g, part, k)
        if q.m == 0:
            break
        tracer.count("global_iterations")
        rounds = schedule_rounds(
            q, matching_selection, seed=seed + git, coloring=coloring,
            tracer=tracer,
        )
        total_gain = 0.0
        total_moved = 0
        for matching in rounds:
            # the pairs of one color are block-disjoint, so they commute:
            # each local iteration extracts the live pairs' bands in one
            # call.  Under the mapping objective a pair's gain bias reads
            # the blocks of its third-block neighbours, which other pairs
            # of the color move, so there each pair runs on its own.
            groups = [matching] if dist is None else [[e] for e in matching]
            sizes = np.bincount(part, minlength=k)
            for group in groups:
                logs: List[List[PairResult]] = [[] for _ in group]
                live = list(range(len(group)))
                for lit in range(local_iterations):
                    if not live:
                        break
                    bands = extract_bands(g, part, [group[i] for i in live],
                                          bfs_depth)
                    still = []
                    for i, band in zip(live, bands):
                        a, b = group[i]
                        pr = refine_pair(
                            g, part, block_w, a, b, lmax, bfs_depth, alpha,
                            queue_selection,
                            _pair_seed(seed, git, lit, a, b, 0),
                            _pair_seed(seed, git, lit, a, b, 1),
                            (int(sizes[a]), int(sizes[b])),
                            algorithm=pair_algorithm,
                            dist=dist,
                            aux_block_w=aux_block_w,
                            aux_lmax=aux_lmax,
                            band=band,
                        )
                        logs[i].append(pr)
                        if pr.changed:
                            still.append(i)
                    live = still
                # book in pair-major order, the accumulation order of
                # refining each pair to completion, so sums stay exact
                for log in logs:
                    for pr in log:
                        total_gain += pr.gain
                        total_moved += len(pr.changed)
                        tracer.count("pairs_refined")
                        tracer.count("fm_moves_attempted", pr.moves_tried)
                        tracer.count("fm_moves_accepted", pr.moves_applied)
        tracer.count("refine_gain", total_gain)
        tracer.count("nodes_moved", total_moved)
        if stop_rule == "always":
            break
        if total_gain <= 1e-12 and total_moved == 0:
            no_change_streak += 1
            needed = 2 if stop_rule == "twice_no_change" else 1
            if no_change_streak >= needed:
                break
        else:
            no_change_streak = 0
    return part


def pairwise_refinement_spmd(
    comm: Comm,
    g: Graph,
    part_in: np.ndarray,
    epsilon: float = 0.03,
    bfs_depth: int = 5,
    alpha: float = 0.05,
    queue_selection: str = "top_gain",
    local_iterations: int = 3,
    max_global_iterations: int = 15,
    stop_rule: str = "no_change",
    seed: int = 0,
    k: Optional[int] = None,
    pair_algorithm: str = "fm",
    epsilons: Optional[Sequence[float]] = None,
    topology=None,
) -> np.ndarray:
    """SPMD driver: PE ``comm.rank`` is responsible for blocks
    ``rank, rank + P, …`` (one block per PE when ``comm.size == k``, the
    paper's setting; several per PE for the k > P generalisation of
    Section 8).

    Per color class, the owners of a matched block pair exchange their
    boundary bands (charged to the simulated clock), both run FM with the
    pair's two seeds, and the better result is adopted — the paper's
    protocol.  After each color, the node moves are shared so every PE
    holds a consistent partition.  Within a color the per-pair FM calls
    are submitted through ``comm.map_batch`` — sequential (and therefore
    order-identical) on most engines, a work-stealing batch on the
    threads engine; the pairs of one color move disjoint node sets, so
    stealing cannot change a single label.  Returns the refined partition
    (identical on every PE, and identical to :func:`pairwise_refinement`
    with ``coloring="distributed"`` for the same seed, for *any* PE
    count).
    """
    k = comm.size if k is None else int(k)
    if comm.size > k:
        raise ValueError("more PEs than blocks (k < P is future work)")
    p = comm.size
    part = np.asarray(part_in, dtype=np.int64).copy()
    lmax, aux_block_w, aux_lmax = _constraint_setup(
        g, part, k, epsilon, epsilons)
    block_w = metrics.block_weights(g, part, k)
    dist = None if topology is None else topology.distance_matrix()

    def owner(block: int) -> int:
        return block % p

    no_change_streak = 0
    for git in range(max_global_iterations):
        q = quotient_graph(g, part, k)
        if q.m == 0:
            break
        my_colors = distributed_edge_coloring_spmd(comm, q, seed=seed + git)
        # PEs need the global color count to iterate the same classes
        n_colors = comm.allreduce(
            max(my_colors.values()) + 1 if my_colors else 0, op=max
        )
        total_gain = 0.0
        total_moved = 0
        for color in range(n_colors):
            # pairs of this color with an endpoint block owned here,
            # processed in ascending order on every involved PE (buffered
            # sends make the interleaved exchanges deadlock-free).  The
            # pairs of one color form a matching on the quotient graph,
            # so their refinements touch disjoint blocks and commute
            # bit-exactly — which lets each local iteration extract all
            # live bands in one call, run the band exchanges pair by pair
            # and then hand the refine_pair calls to ``comm.map_batch`` as
            # one stealable batch (idle PEs of the threads engine pick
            # pairs off the far end).
            mine = sorted(e for e, c in my_colors.items() if c == color)
            updates: List[Tuple[int, int]] = []
            sizes = np.bincount(part, minlength=k)
            pairs = []
            for a, b in mine:
                pairs.append({
                    "edge": (a, b),
                    "partner": (owner(b) if owner(a) == comm.rank
                                else owner(a)),
                    "sizes": (int(sizes[a]), int(sizes[b])),
                    "log": [],       # PairResult per executed local iter
                    "live": True,
                })
            for lit in range(local_iterations):
                live = [p_ for p_ in pairs if p_["live"]]
                if not live:
                    break
                bands = extract_bands(g, part, [p_["edge"] for p_ in live],
                                      bfs_depth)
                for p_, band in zip(live, bands):
                    # exchange boundary bands (the communication the cost
                    # model must see — Figure 2's boundary exchange)
                    payload = (
                        band.graph.xadj, band.graph.adjncy,
                        band.graph.adjwgt, band.smap.to_parent,
                    )
                    if p_["partner"] != comm.rank:
                        comm.sendrecv(payload, p_["partner"], tag=100 + lit)
                    comm.compute(band.graph.m)

                # both owners perform both seeded searches on the band
                # they exchanged and adopt the same better result
                # (deterministic agreement)
                def refine_task(p_, band, lit=lit):
                    a, b = p_["edge"]
                    return refine_pair(
                        g, part, block_w, a, b, lmax, bfs_depth, alpha,
                        queue_selection,
                        _pair_seed(seed, git, lit, a, b, 0),
                        _pair_seed(seed, git, lit, a, b, 1),
                        p_["sizes"],
                        algorithm=pair_algorithm,
                        dist=dist,
                        aux_block_w=aux_block_w,
                        aux_lmax=aux_lmax,
                        band=band,
                    )

                prs = comm.map_batch(
                    [lambda p_=p_, band=band: refine_task(p_, band)
                     for p_, band in zip(live, bands)])
                for p_, pr in zip(live, prs):
                    p_["log"].append(pr)
                    if not pr.changed:
                        p_["live"] = False
            # book gains and moves in pair-major order — the exact
            # accumulation order of the unbatched loop, so sums and the
            # allgather payload below stay bit-identical
            for p_ in pairs:
                a, b = p_["edge"]
                if comm.rank == owner(a):  # count each pair once
                    for pr in p_["log"]:
                        updates.extend(pr.changed)
                        total_gain += pr.gain
            # share moves of this color class with all PEs as (node,
            # block) rows; applied in list order, one move at a time, so
            # the float block-weight sums stay bit-exact (a node may move
            # twice across local iterations)
            all_updates = comm.allgather(
                np.array(updates, dtype=np.int64).reshape(-1, 2))
            for moves in all_updates:
                for v, nb in moves.tolist():
                    if part[v] != nb:
                        block_w[part[v]] -= g.vwgt[v]
                        block_w[nb] += g.vwgt[v]
                        if aux_block_w is not None:
                            aux_block_w[part[v]] -= g.vwgts[v, 1:]
                            aux_block_w[nb] += g.vwgts[v, 1:]
                        part[v] = nb
            total_moved += sum(len(moves) for moves in all_updates)
        if stop_rule == "always":
            break
        round_gain = comm.allreduce(total_gain)
        round_moved = comm.allreduce(total_moved)
        if round_gain <= 1e-12 and round_moved == 0:
            no_change_streak += 1
            needed = 2 if stop_rule == "twice_no_change" else 1
            if no_change_streak >= needed:
                break
        else:
            no_change_streak = 0
    return part

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

Two drivers share the pair search and adoption kernels:

* :func:`pairwise_refinement` — deterministic sequential execution,
  one :func:`refine_pair` (both seeded searches, then adoption) per pair;
* :func:`pairwise_refinement_spmd` — the same algorithm as an SPMD
  program against the :class:`~repro.engine.base.Comm` protocol (one
  block per PE, or several when k > P; runs on any execution engine),
  with real band exchange between partners.  Each owner of a pair runs
  only its own block's seeded search; the two trade their results and
  adopt the same better one.

With the distributed coloring selected on the sequential side, both
drivers produce identical partitions for identical seeds, for any PE
count.

Both drivers run one color class in the same shape.  The pairs of a
color are block-disjoint, so their refinements cannot interact: each
local iteration extracts the bands of all live pairs with one
:func:`~repro.refinement.band.extract_bands` call, refines every pair on
its band, and drops the pairs that did not change.  Block sizes come
from one ``bincount`` per color, and gains and moves are booked in
pair-major order, so the sums and tracer counters equal those of
refining each pair to completion in turn.  FM runs on the band's
prepared lists (:attr:`~repro.refinement.band.Band.fm`), never on a
band subgraph, and the band seeds come from a candidate mask each
driver keeps per level (the cut nodes when the level starts, plus every
moved node and its neighbours) instead of a scan of all arcs; the
sequential driver also draws each global iteration's schedule from the
cut arcs of those candidates (clipped to its ``within`` mask).  The
SPMD driver sends each partner exactly the band (plus halo) it refines
and trades the FM results as band-node sides.  Under the
mapping objective a pair's gain bias reads its third-block neighbours,
whose blocks other pairs of the color change, so the sequential driver
then takes the pairs of a color one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.base import Comm
from ..graph.build import from_edge_list
from ..graph.csr import Graph
from ..core import metrics
from ..instrument.tracer import NULL_TRACER
from ..parallel.coloring import (coloring_to_matchings,
                                 distributed_edge_coloring)
from .band import Band, add_candidates, cut_candidates, extract_bands
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
    band_nodes: int        # FM-local band nodes (the halo not counted)
    boundary: int
    moves_tried: int = 0   # FM moves attempted by the seeded runs made here
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
    bias = np.zeros(len(band.nodes), dtype=np.float64)
    for i in np.flatnonzero(band.node_movable):
        v = int(band.nodes[i])
        pw = part[g.neighbors(v)]
        third = (pw != a) & (pw != b)
        if not third.any():
            continue
        s, t = (b, a) if band.node_side[i] else (a, b)
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


#: a search candidate: its ``(imbalance after, −gain)`` key and the
#: 0/1 side it proposes for each band node (``Band.nodes``)
Candidate = Tuple[Tuple[float, float], np.ndarray]


@dataclass
class _PairSearch:
    """The candidates of one pair's local searches, before adoption."""

    fm: List[Candidate]     # one per seeded FM run, in seed order
    flow: List[Candidate]   # the flow candidate, when one was computed
    before_imb: float
    moves_tried: int


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

    ``dist`` (a k×k block distance matrix) switches the pair search to
    the topology-aware mapping objective: within-pair gains are scaled
    by ``dist[a, b]`` and third-block edges contribute a per-node bias
    (see :func:`_mapping_bias`).  The flow candidate only understands
    the cut objective and is skipped under mapping.  ``aux_block_w``
    (``(k, c-1)``) and ``aux_lmax`` (``(c-1,)``) enforce the extra
    balance-constraint dimensions of a multi-constraint graph.
    """
    if band is None:
        band = extract_bands(g, part, [(a, b)], depth)[0]
    search = _search_pair(
        g, part, block_w, a, b, lmax, alpha, queue_selection,
        (seed_a, seed_b), block_sizes, algorithm, band,
        dist=dist, aux_block_w=aux_block_w, aux_lmax=aux_lmax)
    return _adopt(g, part, block_w, a, b, band, search, aux_block_w)


def _search_pair(
    g: Graph,
    part: np.ndarray,
    block_w: np.ndarray,
    a: int,
    b: int,
    lmax: float,
    alpha: float,
    queue_selection: str,
    seeds: Sequence[int],
    block_sizes: Tuple[int, int],
    algorithm: str,
    band: Band,
    dist: Optional[np.ndarray] = None,
    aux_block_w: Optional[np.ndarray] = None,
    aux_lmax: Optional[np.ndarray] = None,
) -> Optional[_PairSearch]:
    """Run the pair's local searches on ``band`` without changing
    anything: one FM run per seed in ``seeds`` plus, for the flow
    algorithms, the flow candidate.  ``None`` when the band offers no
    move.  Reads ``part`` and ``block_w`` only, so the searches of the
    pairs of one color class may run concurrently."""
    if algorithm not in ("fm", "flow", "fm_flow"):
        raise ValueError(f"unknown pair refinement algorithm {algorithm!r}")
    # every band node lies within BFS reach of a seed, and a seed has a
    # crossing arc, so a band with a movable node always has arcs
    if not band.node_movable.any():
        return None

    wa, wb = float(block_w[a]), float(block_w[b])
    have_aux = aux_block_w is not None and g.n_constraints > 1
    if have_aux:
        aux = g.vwgts[band.nodes, 1:]
        awa = aux_block_w[a].astype(np.float64, copy=True)
        awb = aux_block_w[b].astype(np.float64, copy=True)
        alim = np.asarray(aux_lmax, dtype=np.float64)

        def aux_after(new_side):
            moved = band.node_movable & (new_side != band.node_side)
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

    scale = None
    bias = None
    if dist is not None:
        scale = float(dist[a, b])
        bias = _mapping_bias(g, part, band, a, b, dist)

    out = _PairSearch(fm=[], flow=[], before_imb=pair_imbalance(wa, wb),
                      moves_tried=0)
    if algorithm in ("fm", "fm_flow"):
        # the seeded runs share the band's FM lists
        search = FMSearch.from_lists(band.fm, edge_scale=scale,
                                     gain_bias=bias,
                                     aux_weights=aux if have_aux else None)
        for seed in seeds:
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
            out.moves_tried += res.moves_tried
            out.fm.append(((after_imb, -res.gain), res.side))
    if algorithm in ("flow", "fm_flow") and dist is None:
        from .flow import flow_cut_for_band
        from .gain import cut_between_sides

        # the flow refiner works on the band plus its halo (the halo is
        # its terminals); only band nodes may change side
        flow_res = flow_cut_for_band(band)
        if flow_res is not None:
            value, flow_side = flow_res
            cut_before = cut_between_sides(band.graph, band.side)
            moved_mask = band.movable & (flow_side != band.side)
            delta = g.vwgt[band.smap.to_parent[moved_mask]]
            to_b = flow_side[moved_mask] == 1
            fwa = wa - float(delta[to_b].sum()) + float(delta[~to_b].sum())
            fwb = wb + float(delta[to_b].sum()) - float(delta[~to_b].sum())
            flow_side = flow_side[band.graph_index]
            after_imb = pair_imbalance(fwa, fwb, flow_side)
            out.flow.append(((after_imb, value - cut_before), flow_side))
    return out


def _adopt(
    g: Graph,
    part: np.ndarray,
    block_w: np.ndarray,
    a: int,
    b: int,
    band: Band,
    search: Optional[_PairSearch],
    aux_block_w: Optional[np.ndarray] = None,
    fm: Optional[List[Candidate]] = None,
) -> PairResult:
    """Adopt the best of the pair's candidates — the seeded FM runs in
    seed order, then the flow candidate — if it beats the current state,
    updating ``part``, ``block_w`` and ``aux_block_w`` in place.  Ties
    go to the earlier candidate.  ``fm`` replaces ``search.fm`` when the
    seeded runs were split between PEs."""
    if search is None:
        return PairResult(0.0, 0.0, [], 0, band.n_boundary)
    candidates = (search.fm if fm is None else fm) + search.flow
    unchanged = PairResult(0.0, 0.0, [], len(band.nodes), band.n_boundary,
                           moves_tried=search.moves_tried)
    if not candidates:
        return unchanged
    key, winner_side = min(candidates, key=lambda kr: tuple(kr[0]))
    if key >= (search.before_imb, 0.0):
        return unchanged

    have_aux = aux_block_w is not None and g.n_constraints > 1
    changed: List[Tuple[int, int]] = []
    flipped = np.flatnonzero(band.node_movable
                             & (winner_side != band.node_side))
    for v, to_b in zip(band.nodes[flipped].tolist(),
                       winner_side[flipped].tolist()):
        new_block = b if to_b == 1 else a
        changed.append((v, new_block))
        block_w[part[v]] -= g.vwgt[v]
        block_w[new_block] += g.vwgt[v]
        if have_aux:
            aux_block_w[part[v]] -= g.vwgts[v, 1:]
            aux_block_w[new_block] += g.vwgts[v, 1:]
        part[v] = new_block
    return PairResult(
        gain=-key[1],
        imbalance_delta=key[0] - search.before_imb,
        changed=changed,
        band_nodes=len(band.nodes),
        boundary=band.n_boundary,
        moves_tried=search.moves_tried,
        moves_applied=len(changed),
    )


def _pair_seed(seed: int, git: int, lit: int, a: int, b: int, who: int) -> int:
    """Canonical per-search seed so the sequential and SPMD drivers make
    identical random decisions."""
    return hash((seed, git, lit, a, b, who)) & 0x7FFFFFFF


def _schedule_quotient(g: Graph, part: np.ndarray, k: int,
                       rows: np.ndarray) -> Graph:
    """The quotient graph a schedule is drawn from, built from the cut
    arcs of the nodes in the mask ``rows`` only: an edge {A, B} whenever
    such a node of block A has an arc into block B.  The schedules read
    only Q's edge endpoints, so the edges carry unit weights.  When
    ``rows`` holds every cut node this is exactly Q's edge set, without
    a scan of all arcs."""
    nodes = np.flatnonzero(rows)
    idx, counts = g.row_arcs(nodes)
    bu = np.repeat(part[nodes], counts)
    bv = part[g.adjncy[idx]]
    cross = bu != bv
    keys = np.unique(np.minimum(bu[cross], bv[cross]) * k
                     + np.maximum(bu[cross], bv[cross]))
    return from_edge_list(k, np.stack([keys // k, keys % k], axis=1))


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
    within: Optional[np.ndarray] = None,
    tracer=NULL_TRACER,
) -> np.ndarray:
    """Sequential driver: iterate over the rounds of a pair schedule of
    Q, refining every pair.  Returns the refined partition vector.

    ``matching_selection`` picks the Section 5.1 strategy:
    ``"edge_coloring"`` (the adopted default) or ``"random_local"``.
    For the coloring strategy, ``coloring="greedy"`` uses the fast
    sequential coloring while ``coloring="distributed"`` replays the
    distributed algorithm for every quotient node, which makes this
    driver bit-identical to :func:`pairwise_refinement_spmd` for the same
    seed.  ``tracer`` accumulates refinement counters (pairs refined, FM
    moves attempted/accepted, total gain, iteration counts).

    ``epsilons`` gives one balance tolerance per constraint dimension of
    a multi-constraint graph (default: ``epsilon`` for every dimension);
    ``topology`` (a :class:`~repro.core.objectives.Topology`) switches
    every pair search to the topology-aware mapping objective.

    ``within`` (optional boolean node mask) confines the refinement to
    its nodes: only the pairs whose cut touches the mask are scheduled,
    and no node outside it moves (the bands are clipped to it, see
    :func:`~repro.refinement.band.extract_bands`).  The incremental
    repartitioner passes its dirty band here.
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
    # superset of the cut nodes: seeds the band extraction
    near_cut = cut_candidates(g, part)

    no_change_streak = 0
    for git in range(max_global_iterations):
        rows = near_cut if within is None else near_cut & within
        q = _schedule_quotient(g, part, k, rows)
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
                                          bfs_depth, within=within,
                                          candidates=near_cut)
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
                            add_candidates(g, near_cut,
                                           [v for v, _ in pr.changed])
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


def _swap_fm_candidates(
    comm: Comm, live: List[dict], bands: List[Band],
    searches: List[Optional[_PairSearch]], tag: int,
) -> Dict[int, Candidate]:
    """Trade the FM candidates of the pairs shared with other PEs: one
    ``sendrecv`` per partner PE, ascending, carrying the pairs' keys as
    an ``(n, 2)`` float64 array and their side vectors concatenated as
    one int8 array.  Both owners extract the same band, so the receiver
    splits the sides by band size.  Returns the partner's candidate per
    index into ``live``."""
    by_partner: Dict[int, List[int]] = {}
    for i, p_ in enumerate(live):
        if p_["partner"] != comm.rank and searches[i] is not None \
                and searches[i].fm:
            by_partner.setdefault(p_["partner"], []).append(i)
    theirs: Dict[int, Candidate] = {}
    for partner in sorted(by_partner):
        idx = by_partner[partner]
        keys = np.array([searches[i].fm[0][0] for i in idx],
                        dtype=np.float64)
        sides = np.concatenate([searches[i].fm[0][1] for i in idx])
        their_keys, their_sides = comm.sendrecv((keys, sides), partner,
                                                tag=tag)
        ends = np.cumsum([len(bands[i].nodes) for i in idx])
        for i, key, side in zip(idx, their_keys.tolist(),
                                np.split(their_sides, ends[:-1])):
            theirs[i] = (tuple(key), side)
    return theirs


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

    Every PE holds the partition and hence Q, so each replays the
    distributed coloring of Q itself (no exchange; the sim engine's
    clock is still charged its rounds).  Per color class, the owners of
    a matched block pair exchange their boundary bands (charged to the
    simulated clock); the owner of block ``a`` runs FM with the pair's
    first seed and the owner of ``b`` with the second, the two trade
    their results, and both adopt the better one — the paper's protocol.
    A PE that owns both blocks runs both seeds.  After each color, the
    node moves are shared so every PE holds a consistent partition.
    Within a color the per-pair searches only read the partition and
    never communicate, so they run in pair order between the band
    exchanges and the result trade.  Returns the refined partition
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
    # superset of the cut nodes: seeds the band extraction
    near_cut = cut_candidates(g, part)

    def owner(block: int) -> int:
        return block % p

    no_change_streak = 0
    for git in range(max_global_iterations):
        q = _schedule_quotient(g, part, k, near_cut)
        if q.m == 0:
            break
        colors = distributed_edge_coloring(q, seed=seed + git, comm=comm)
        total_moved = 0
        for matching in coloring_to_matchings(colors):
            # pairs of this color with an endpoint block owned here,
            # processed in ascending order on every involved PE (buffered
            # sends make the interleaved exchanges deadlock-free).  The
            # pairs of one color form a matching on the quotient graph,
            # so their refinements touch disjoint blocks and commute
            # bit-exactly — which lets each local iteration extract all
            # live bands in one call, run the band exchanges pair by
            # pair, then all the searches, and trade the results per
            # partner.
            updates: List[Tuple[int, int]] = []
            sizes = np.bincount(part, minlength=k)
            pairs = []
            for a, b in matching:
                if comm.rank not in (owner(a), owner(b)):
                    continue
                pairs.append({
                    "edge": (a, b),
                    "partner": (owner(b) if owner(a) == comm.rank
                                else owner(a)),
                    # the seeds this PE runs: 0 for block a, 1 for b
                    "whos": tuple(who for who, blk in enumerate((a, b))
                                  if owner(blk) == comm.rank),
                    "sizes": (int(sizes[a]), int(sizes[b])),
                    "log": [],       # PairResult per executed local iter
                    "live": True,
                })
            for lit in range(local_iterations):
                live = [p_ for p_ in pairs if p_["live"]]
                if not live:
                    break
                bands = extract_bands(g, part, [p_["edge"] for p_ in live],
                                      bfs_depth, candidates=near_cut)
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

                searches = [
                    _search_pair(
                        g, part, block_w, *p_["edge"], lmax, alpha,
                        queue_selection,
                        [_pair_seed(seed, git, lit, *p_["edge"], who)
                         for who in p_["whos"]],
                        p_["sizes"], pair_algorithm, band,
                        dist=dist,
                        aux_block_w=aux_block_w,
                        aux_lmax=aux_lmax,
                    )
                    for p_, band in zip(live, bands)
                ]
                theirs = _swap_fm_candidates(comm, live, bands, searches,
                                             tag=200 + lit)
                for i, (p_, band, search) in enumerate(
                        zip(live, bands, searches)):
                    fm = None
                    if i in theirs:  # candidates in seed order: a, then b
                        fm = (search.fm + [theirs[i]] if p_["whos"] == (0,)
                              else [theirs[i]] + search.fm)
                    pr = _adopt(g, part, block_w, *p_["edge"], band, search,
                                aux_block_w, fm)
                    p_["log"].append(pr)
                    if pr.changed:
                        add_candidates(g, near_cut,
                                       [v for v, _ in pr.changed])
                    else:
                        p_["live"] = False
            # book moves in pair-major order — the exact accumulation
            # order of the unbatched loop, so the allgather payload below
            # stays bit-identical
            for p_ in pairs:
                if comm.rank == owner(p_["edge"][0]):  # each pair once
                    for pr in p_["log"]:
                        updates.extend(pr.changed)
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
                add_candidates(g, near_cut, moves[:, 0])
            total_moved += sum(len(moves) for moves in all_updates)
        if stop_rule == "always":
            break
        # total_moved counts every PE's moves, so it is global; a pair
        # that moves nothing reports zero gain, so no move also means no
        # improvement (the sequential driver's two-part test)
        if total_moved == 0:
            no_change_streak += 1
            needed = 2 if stop_rule == "twice_no_change" else 1
            if no_change_streak >= needed:
                break
        else:
            no_change_streak = 0
    return part

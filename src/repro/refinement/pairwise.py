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

One driver, :func:`pairwise_refinement`, runs this loop for one process
holding every block and, given a :class:`~repro.engine.base.Comm`, as
one PE's share of an SPMD program (one block per PE, or several when
k > P; runs on any execution engine).  Every PE holds ``g`` and
``part``, so the partners of a pair extract the same band from their own
copies: the paper's boundary exchange is charged to the cost clock
(:meth:`~repro.engine.base.CommBase.model_sendrecv`), never sent.  Each
owner of a pair runs only its own block's seeded search; the two trade
their results and adopt the same better one, and the color's moves are
then shared with every PE.  For the same schedule the partition does
not depend on the PE count.

One color class runs in the same shape on both paths.  The pairs of a
color are block-disjoint, so their refinements cannot interact: each
local iteration extracts the bands of all live pairs with one
:func:`~repro.refinement.band.extract_bands` call, refines every pair on
its band, and drops the pairs that did not change.  Block sizes come
from one ``bincount`` per color, and gains and moves are booked in
pair-major order, so the sums and tracer counters equal those of
refining each pair to completion in turn (:func:`refine_pair`, the
pair-by-pair reference).  FM runs on the band's prepared lists
(:attr:`~repro.refinement.band.Band.fm`), never on a band subgraph, and
the band seeds come from a candidate mask kept per level (the cut nodes
when the level starts, plus every moved node and its neighbours)
instead of a scan of all arcs; each global iteration's schedule is drawn
from the cut arcs of those candidates (clipped to the ``within`` mask).
Under the mapping objective a pair's gain bias reads its third-block
neighbours, whose blocks other pairs of the color change, so one
process holding every pair then takes the pairs of a color one at a
time.
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
from ..parallel.costmodel import payload_nbytes
from .band import Band, add_candidates, cut_candidates, extract_bands
from .fm import FMSearch

__all__ = ["PairResult", "refine_pair", "pairwise_refinement"]


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
    in the pair's band when the caller already extracted it (the driver
    extracts a whole color class at once with :func:`extract_bands`);
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
    """Canonical per-search seed, so every PE count makes identical
    random decisions."""
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
    comm: Optional[Comm] = None,
    tracer=NULL_TRACER,
) -> np.ndarray:
    """Iterate over the rounds of a pair schedule of Q, refining every
    pair.  Returns the refined partition vector.

    ``matching_selection`` picks the Section 5.1 strategy:
    ``"edge_coloring"`` (the adopted default) or ``"random_local"``.
    For the coloring strategy, ``coloring="greedy"`` uses the fast
    sequential coloring while ``coloring="distributed"`` replays the
    distributed algorithm for every quotient node.  ``tracer``
    accumulates refinement counters (pairs refined, FM moves
    attempted/accepted, total gain, iteration counts).

    ``epsilons`` gives one balance tolerance per constraint dimension of
    a multi-constraint graph (default: ``epsilon`` for every dimension);
    ``topology`` (a :class:`~repro.core.objectives.Topology`) switches
    every pair search to the topology-aware mapping objective.

    ``within`` (optional boolean node mask) confines the refinement to
    its nodes: only the pairs whose cut touches the mask are scheduled,
    and no node outside it moves (the bands are clipped to it, see
    :func:`~repro.refinement.band.extract_bands`).  The incremental
    repartitioner passes its dirty band here.

    With a ``comm`` this is one PE's share of an SPMD run: PE
    ``comm.rank`` owns blocks ``rank, rank + P, …`` (``k >= P``), runs
    only its own blocks' seeded searches, trades FM results with the
    pair's partner, and shares the color's moves with every PE.  The
    result is identical on every PE and, for the same schedule, to the
    run without a ``comm``, for any PE count.
    """
    if coloring not in ("greedy", "distributed"):
        raise ValueError(f"unknown coloring mode {coloring!r}")
    from .scheduling import SCHEDULES, schedule_rounds

    if matching_selection not in SCHEDULES:
        raise ValueError(
            f"unknown matching selection {matching_selection!r}; "
            f"choose from {SCHEDULES}"
        )
    p, rank = (1, 0) if comm is None else (comm.size, comm.rank)
    if p > k:
        raise ValueError("more PEs than blocks (k < P is future work)")
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
            comm=comm, tracer=tracer,
        )
        total_moved = 0
        total_gain = 0.0
        for matching in rounds:
            # the pairs of one color are block-disjoint, so they commute:
            # each local iteration extracts the live pairs' bands in one
            # call.  Under the mapping objective a pair's gain bias reads
            # the blocks of its third-block neighbours, which other pairs
            # of the color move, so one process holding every pair takes
            # them one at a time.
            mine = [e for e in matching if rank in (e[0] % p, e[1] % p)]
            groups = ([mine] if dist is None or comm is not None
                      else [[e] for e in mine])
            sizes = np.bincount(part, minlength=k)
            moved: List[Tuple[int, int]] = []
            for group in groups:
                # the seeds this PE runs (0 for block a, 1 for b) and the
                # PE owning the pair's other block
                whos = [tuple(who for who, blk in enumerate(e)
                              if blk % p == rank) for e in group]
                partners = [e[1] % p if e[0] % p == rank else e[0] % p
                            for e in group]
                logs: List[List[PairResult]] = [[] for _ in group]
                live = list(range(len(group)))
                for lit in range(local_iterations):
                    if not live:
                        break
                    bands = extract_bands(g, part, [group[i] for i in live],
                                          bfs_depth, within=within,
                                          candidates=near_cut)
                    if comm is not None:
                        # every PE extracts the band from its own copy of
                        # ``part``, so the paper's boundary exchange is
                        # charged to the cost clock, never sent
                        for i, band in zip(live, bands):
                            comm.model_sendrecv(
                                partners[i], 100 + lit,
                                lambda: (band.graph.m, payload_nbytes((
                                    band.graph.xadj, band.graph.adjncy,
                                    band.graph.adjwgt, band.smap.to_parent))))
                    searches = [
                        _search_pair(
                            g, part, block_w, *group[i], lmax, alpha,
                            queue_selection,
                            [_pair_seed(seed, git, lit, *group[i], who)
                             for who in whos[i]],
                            (int(sizes[group[i][0]]), int(sizes[group[i][1]])),
                            pair_algorithm, band, dist=dist,
                            aux_block_w=aux_block_w, aux_lmax=aux_lmax)
                        for i, band in zip(live, bands)
                    ]
                    theirs: Dict[int, Candidate] = {}
                    if any(partners[i] != rank for i in live):
                        theirs = _swap_fm_candidates(
                            comm, [partners[i] for i in live], bands,
                            searches, tag=200 + lit)
                    still = []
                    for j, (i, band, search) in enumerate(
                            zip(live, bands, searches)):
                        fm = None
                        if j in theirs:  # in seed order: a, then b
                            fm = (search.fm + [theirs[j]] if whos[i] == (0,)
                                  else [theirs[j]] + search.fm)
                        pr = _adopt(g, part, block_w, *group[i], band,
                                    search, aux_block_w, fm)
                        logs[i].append(pr)
                        if pr.changed:
                            add_candidates(g, near_cut,
                                           [v for v, _ in pr.changed])
                            still.append(i)
                    live = still
                # book in pair-major order, the accumulation order of
                # refining each pair to completion, so sums stay exact;
                # the owner of a pair's first block books it
                for (a, _), log in zip(group, logs):
                    if a % p != rank:
                        continue
                    for pr in log:
                        total_gain += pr.gain
                        moved.extend(pr.changed)
                        tracer.count("pairs_refined")
                        tracer.count("fm_moves_attempted", pr.moves_tried)
                        tracer.count("fm_moves_accepted", pr.moves_applied)
            if comm is None:
                total_moved += len(moved)
                continue
            # share the color's moves with all PEs as (node, block) rows;
            # applied in list order, one move at a time, so the float
            # block-weight sums stay bit-exact (a node may move twice
            # across local iterations)
            all_moves = comm.allgather(
                np.array(moved, dtype=np.int64).reshape(-1, 2))
            for moves in all_moves:
                for v, nb in moves.tolist():
                    if part[v] != nb:
                        block_w[part[v]] -= g.vwgt[v]
                        block_w[nb] += g.vwgt[v]
                        if aux_block_w is not None:
                            aux_block_w[part[v]] -= g.vwgts[v, 1:]
                            aux_block_w[nb] += g.vwgts[v, 1:]
                        part[v] = nb
                add_candidates(g, near_cut, moves[:, 0])
                total_moved += len(moves)
        tracer.count("refine_gain", total_gain)
        tracer.count("nodes_moved", total_moved)
        if stop_rule == "always":
            break
        # total_moved counts every PE's moves, and a pair that moves
        # nothing reports zero gain, so no move also means no gain
        if total_moved == 0:
            no_change_streak += 1
            needed = 2 if stop_rule == "twice_no_change" else 1
            if no_change_streak >= needed:
                break
        else:
            no_change_streak = 0
    return part


def _swap_fm_candidates(
    comm: Comm, partners: List[int], bands: List[Band],
    searches: List[Optional[_PairSearch]], tag: int,
) -> Dict[int, Candidate]:
    """Trade the FM candidates of the pairs shared with other PEs: one
    ``sendrecv`` per partner PE, ascending, carrying the pairs' keys as
    an ``(n, 2)`` float64 array and their side vectors concatenated as
    one int8 array.  Both owners extract the same band, so the receiver
    splits the sides by band size.  Returns the partner's candidate per
    pair index."""
    by_partner: Dict[int, List[int]] = {}
    for i, partner in enumerate(partners):
        if partner != comm.rank and searches[i] is not None \
                and searches[i].fm:
            by_partner.setdefault(partner, []).append(i)
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

"""2-way FM local search (paper Section 5.2; Fiduccia–Mattheyses [10]).

"For each of the two blocks A, B under consideration, a PE keeps a
priority queue of nodes eligible to move.  The priority is based on the
gain […].  Each node is moved at most once within a single local search.
The queues are initialized in random order with the nodes at the partition
boundary."

Queue-selection strategies (Table 4):

* ``alternating`` — alternate between A and B [10];
* ``max_load`` — the heavier block gives a node;
* ``top_gain`` — the queue promising larger gain, *except* that MaxLoad is
  used when one of the blocks is overloaded (the adopted default);
* ``top_gain_max_load`` — TopGain with MaxLoad tie-breaking.

"The search is broken when more than α·min{|A|, |B|} nodes have been moved
without yielding an improvement.  When the search stops, search is rolled
back to the state with the lexicographically best value of the tuple
(imbalance, cutValue), where imbalance is
max(0, max(c(A) − L_max, c(B) − L_max))."

The two queues are binary heaps (the paper's choice, Section 6) built on
:mod:`heapq` with lazy invalidation: a gain update pushes a fresh entry
keyed ``(−gain, −tiebreak, node)`` and stale entries are dropped when
they surface at the top.  A node's tiebreak is a uniform draw taken when
it enters its queue, which realises the random initial order.  The search
runs on plain Python lists (:class:`FMLists`) prepared once per search
(:class:`FMSearch`), so the two seeded runs of a pairwise step share
them.  A whole graph is converted by the :class:`FMSearch` constructor;
pair refinement gets the lists of a boundary band straight from
:func:`~repro.refinement.band.extract_bands` and hands them to
:meth:`FMSearch.from_lists`, so no band subgraph is ever built for FM.
The addressable heap of :mod:`repro.refinement.pq` remains the queue of
rebalancing and initial partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from .gain import gain_and_boundary

__all__ = ["FMLists", "FMResult", "FMSearch", "fm_bipartition_refine",
           "QUEUE_STRATEGIES"]

QUEUE_STRATEGIES = ("alternating", "max_load", "top_gain", "top_gain_max_load")


@dataclass
class FMResult:
    """Outcome of one FM local search between two blocks."""

    side: np.ndarray        # final 0/1 side per node of the search graph
    gain: float             # total cut reduction kept after rollback
    moves_applied: int      # moves surviving the rollback
    moves_tried: int        # all moves attempted before rollback
    weight_a: float
    weight_b: float

    @property
    def improved(self) -> bool:
        return self.gain > 1e-12


def _floats(x: Optional[np.ndarray], default: np.ndarray) -> List[float]:
    return (default if x is None
            else np.asarray(x, dtype=np.float64)).tolist()


class FMLists(NamedTuple):
    """The start state of an FM search as plain Python lists.

    Node ids are local, ``0..n-1``.  The adjacency holds the arcs
    between listed nodes; nodes FM may never move can be left out
    (FM never updates them), but their arcs still count in ``gains`` —
    the raw cut gains before any mapping scale or bias.  ``init`` is
    the start boundary: the movable nodes with a crossing arc,
    ascending.
    """

    xadj: List[int]
    adjncy: List[int]
    delta: List[float]    # 2·ω per arc: a neighbour's gain change on a move
    vwgt: List[float]
    side: List[int]
    movable: List[bool]
    gains: List[float]
    init: List[int]


class FMSearch:
    """A search graph and start assignment prepared for FM passes.

    Holds everything a pass reads but never writes — the adjacency,
    node weights, movability and the initial gains/boundary — as Python
    lists, so repeated passes (different seeds, limits or strategies)
    pay for the preparation once.  The constructor prepares a whole
    graph ``g``; :meth:`from_lists` takes lists prepared elsewhere (a
    boundary band).  See :func:`fm_bipartition_refine` for the
    parameters.
    """

    def __init__(
        self,
        g: Graph,
        side: np.ndarray,
        movable: Optional[np.ndarray] = None,
        edge_scale: Optional[float] = None,
        gain_bias: Optional[np.ndarray] = None,
        aux_weights: Optional[np.ndarray] = None,
    ) -> None:
        side = np.asarray(side, dtype=np.int8)
        if side.shape != (g.n,) or (
                g.n and (side.min() < 0 or side.max() > 1)):
            raise ValueError("side must be a 0/1 vector of length n")
        movable = ([True] * g.n if movable is None
                   else np.asarray(movable, dtype=bool).tolist())
        scale = 1.0 if edge_scale is None else float(edge_scale)
        gains, boundary = gain_and_boundary(g, side, scale=edge_scale,
                                            bias=gain_bias)
        self._load(FMLists(
            xadj=g.xadj.tolist(),
            adjncy=g.adjncy.tolist(),
            delta=(2.0 * g.adjwgt * scale).tolist(),
            vwgt=g.vwgt.tolist(),
            side=side.tolist(),
            movable=movable,
            gains=gains.tolist(),
            init=[v for v in boundary.tolist() if movable[v]],
        ), aux_weights)
        on_b = side == 1
        self._totals = (
            (float(g.vwgt[~on_b].sum()), float(g.vwgt[on_b].sum())),
            (g.n - int(on_b.sum()), int(on_b.sum())),
        )

    @classmethod
    def from_lists(
        cls,
        lists: FMLists,
        edge_scale: Optional[float] = None,
        gain_bias: Optional[np.ndarray] = None,
        aux_weights: Optional[np.ndarray] = None,
    ) -> "FMSearch":
        """A search over prepared lists (for instance
        :attr:`repro.refinement.band.Band.fm`).  ``edge_scale`` and
        ``gain_bias`` transform the raw gains exactly as the
        ``gain_boundary`` kernel does for a whole graph, so both
        constructors give bit-identical searches on the same state.
        Default block weights and sizes (``weight_a`` etc. left unset in
        :meth:`run`) are those of the listed nodes."""
        gains, delta = lists.gains, lists.delta
        if edge_scale is not None and float(edge_scale) != 1.0:
            scale = float(edge_scale)
            gains = [x * scale for x in gains]
            delta = [x * scale for x in delta]
        if gain_bias is not None:
            gains = [x + y for x, y in zip(
                gains, np.asarray(gain_bias, dtype=np.float64).tolist())]
        self = cls.__new__(cls)
        self._load(lists._replace(gains=gains, delta=delta), aux_weights)
        return self

    def _load(self, lists: FMLists,
              aux_weights: Optional[np.ndarray]) -> None:
        self.n = len(lists.side)
        self.xadj, self.adjncy, self.delta = (lists.xadj, lists.adjncy,
                                              lists.delta)
        self.vwgt, self.side, self.movable = (lists.vwgt, lists.side,
                                              lists.movable)
        self.gains, self.init = lists.gains, lists.init
        self._totals: Optional[Tuple[Tuple[float, float],
                                     Tuple[int, int]]] = None
        self.aux = None
        if aux_weights is not None:
            aux = np.asarray(aux_weights, dtype=np.float64).reshape(self.n, -1)
            on_b = np.array(self.side, dtype=bool)
            self.aux = aux.tolist()
            self.aux_weights = (aux[~on_b].sum(axis=0), aux[on_b].sum(axis=0))

    def _side_totals(self) -> Tuple[Tuple[float, float], Tuple[int, int]]:
        """Start weights and node counts of sides 0 and 1 — the defaults
        of :meth:`run`'s ``weight_a``/``weight_b`` and ``block_sizes``
        (computed on first use: pair refinement always passes both)."""
        if self._totals is None:
            w, c = [0.0, 0.0], [0, 0]
            for s, x in zip(self.side, self.vwgt):
                w[s] += x
                c[s] += 1
            self._totals = ((w[0], w[1]), (c[0], c[1]))
        return self._totals

    def run(
        self,
        rng: Optional[np.random.Generator] = None,
        weight_a: Optional[float] = None,
        weight_b: Optional[float] = None,
        lmax: Optional[float] = None,
        alpha: float = 0.05,
        queue_selection: str = "top_gain",
        block_sizes: Optional[Tuple[int, int]] = None,
        lmax_b: Optional[float] = None,
        aux_weight_a: Optional[np.ndarray] = None,
        aux_weight_b: Optional[np.ndarray] = None,
        aux_lmax_a: Optional[np.ndarray] = None,
        aux_lmax_b: Optional[np.ndarray] = None,
    ) -> FMResult:
        """One FM pass from the prepared start assignment."""
        if queue_selection not in QUEUE_STRATEGIES:
            raise ValueError(
                f"unknown queue selection {queue_selection!r}; "
                f"choose from {QUEUE_STRATEGIES}"
            )
        rng = np.random.default_rng(0) if rng is None else rng
        xadj, adjncy, delta, vwgt = self.xadj, self.adjncy, self.delta, \
            self.vwgt
        side = self.side[:]
        gain = self.gains[:]
        free = self.movable[:]      # movable and not yet locked
        inq = [False] * self.n      # node has a live queue entry
        tiebreak = [0.0] * self.n

        if weight_a is None or weight_b is None or block_sizes is None:
            weights, counts = self._side_totals()
        w = [weights[0] if weight_a is None else float(weight_a),
             weights[1] if weight_b is None else float(weight_b)]
        limit_a = float("inf") if lmax is None else float(lmax)
        limit_b = limit_a if lmax_b is None else float(lmax_b)
        limits = (limit_a, limit_b)
        limit = max(limit_a, limit_b)  # queue strategies use the joint limit
        sizes = counts if block_sizes is None else block_sizes
        patience = max(1, int(alpha * max(1, min(sizes))))

        aux = self.aux
        if aux is not None:
            ndim = len(aux[0]) if aux else 0
            inf = np.full(ndim, np.inf)
            aw = [_floats(aux_weight_a, self.aux_weights[0]),
                  _floats(aux_weight_b, self.aux_weights[1])]
            alim = (_floats(aux_lmax_a, inf), _floats(aux_lmax_b, inf))

        def imbalance() -> float:
            imb = max(0.0, w[0] - limits[0], w[1] - limits[1])
            if aux is not None:
                imb = max(imb,
                          max([0.0] + [x - y for x, y in zip(aw[0], alim[0])]),
                          max([0.0] + [x - y for x, y in zip(aw[1], alim[1])]))
            return imb

        # random tiebreaks realise the "initialized in random order"
        heaps: Tuple[list, list] = ([], [])
        for v, r in zip(self.init, rng.random(len(self.init)).tolist()):
            tiebreak[v] = r
            inq[v] = True
            heaps[side[v]].append((-gain[v], -r, v))
        heapify(heaps[0])
        heapify(heaps[1])
        h0, h1 = heaps

        # lexicographic best over (imbalance, cut): cut tracked as -total_gain
        total_gain = 0.0
        best_key = (imbalance(), 0.0)
        best_prefix = 0
        log: List[int] = []  # moved nodes in order
        fruitless = 0
        last_side = -1

        while fruitless <= patience:
            # drop stale entries: popped nodes and superseded gains
            while h0 and (not inq[h0[0][2]] or -h0[0][0] != gain[h0[0][2]]):
                heappop(h0)
            while h1 and (not inq[h1[0][2]] or -h1[0][0] != gain[h1[0][2]]):
                heappop(h1)
            # queue selection; a non-empty queue wins over an empty one
            if not h0:
                if not h1:
                    break
                s = 1
            elif not h1:
                s = 0
            else:
                w0, w1 = w
                heavier = 0 if w0 > w1 else 1 if w1 > w0 \
                    else int(rng.integers(0, 2))
                if queue_selection == "alternating":
                    s = 1 - last_side if last_side >= 0 \
                        else int(rng.integers(0, 2))
                elif queue_selection == "max_load":
                    s = heavier
                elif queue_selection == "top_gain" and (w0 > limit
                                                       or w1 > limit):
                    # "TopGain adopts the exception that MaxLoad is used
                    # when one of the blocks is overloaded"
                    s = heavier
                else:
                    g0, g1 = -h0[0][0], -h1[0][0]
                    if g0 > g1:
                        s = 0
                    elif g1 > g0:
                        s = 1
                    elif queue_selection == "top_gain":
                        s = int(rng.integers(0, 2))
                    else:  # top_gain_max_load
                        s = heavier
            v = heappop(heaps[s])[2]
            inq[v] = False
            free[v] = False  # popped nodes are locked (standard FM)
            t = 1 - s
            cv = vwgt[v]
            # admissibility: never overload the target unless the move still
            # strictly improves the balance of an already-overloaded pair
            if w[t] + cv > limits[t] and not (
                w[t] + cv - limits[t] < w[s] - limits[s]
            ):
                continue
            if aux is not None:
                # every extra constraint dimension either stays under the
                # target's limit or strictly improves an existing overload
                av = aux[v]
                if not all(
                    over <= 1e-9 or over < fs - ls
                    for over, fs, ls in zip(
                        [x + y - z for x, y, z in zip(aw[t], av, alim[t])],
                        aw[s], alim[s])
                ):
                    continue

            # apply the move
            side[v] = t
            w[s] -= cv
            w[t] += cv
            if aux is not None:
                aw[s] = [x - y for x, y in zip(aw[s], av)]
                aw[t] = [x + y for x, y in zip(aw[t], av)]
            total_gain += gain[v]
            log.append(v)
            last_side = s

            # update neighbour gains
            for i in range(xadj[v], xadj[v + 1]):
                u = adjncy[i]
                if not free[u]:
                    continue
                su = side[u]
                if su == s:
                    gain[u] += delta[i]   # edge became external for u
                else:
                    gain[u] -= delta[i]   # edge became internal for u
                if inq[u]:
                    heappush(heaps[su], (-gain[u], -tiebreak[u], u))
                elif su == s:
                    # u just became a boundary node
                    r = rng.random()
                    tiebreak[u] = r
                    inq[u] = True
                    heappush(heaps[su], (-gain[u], -r, u))

            key = (imbalance(), -total_gain)
            if key < best_key:
                best_key = key
                best_prefix = len(log)
                fruitless = 0
            else:
                fruitless += 1

        # rollback to the lexicographically best prefix
        for v in log[best_prefix:]:
            s = side[v]
            side[v] = 1 - s
            cv = vwgt[v]
            w[s] -= cv
            w[1 - s] += cv
            if aux is not None:
                aw[s] = [x - y for x, y in zip(aw[s], aux[v])]
                aw[1 - s] = [x + y for x, y in zip(aw[1 - s], aux[v])]

        return FMResult(
            side=np.array(side, dtype=np.int8),
            gain=-best_key[1],
            moves_applied=best_prefix,
            moves_tried=len(log),
            weight_a=w[0],
            weight_b=w[1],
        )


def fm_bipartition_refine(
    g: Graph,
    side: np.ndarray,
    movable: Optional[np.ndarray] = None,
    weight_a: Optional[float] = None,
    weight_b: Optional[float] = None,
    lmax: Optional[float] = None,
    alpha: float = 0.05,
    queue_selection: str = "top_gain",
    rng: Optional[np.random.Generator] = None,
    block_sizes: Optional[Tuple[int, int]] = None,
    lmax_b: Optional[float] = None,
    edge_scale: Optional[float] = None,
    gain_bias: Optional[np.ndarray] = None,
    aux_weights: Optional[np.ndarray] = None,
    aux_weight_a: Optional[np.ndarray] = None,
    aux_weight_b: Optional[np.ndarray] = None,
    aux_lmax_a: Optional[np.ndarray] = None,
    aux_lmax_b: Optional[np.ndarray] = None,
) -> FMResult:
    """One FM local search pass between sides 0 and 1 of ``g``.

    Parameters
    ----------
    g:
        The search graph — a bisection, or the subgraph of two blocks.
        (Pair refinement's boundary bands skip the graph and reach FM as
        prepared lists, see :meth:`FMSearch.from_lists`.)
    side:
        0/1 assignment for every node of ``g``.
    movable:
        Nodes eligible to move; defaults to all.  Context nodes that
        only contribute gains (a band's halo) must be marked immovable.
    weight_a, weight_b:
        *Total* current block weights, including any mass outside ``g``
        (band mode).  Default: the side weights within ``g``.
    lmax:
        Balance limit ``L_max``; default: no limit (both blocks huge).
    alpha:
        FM patience: stop after ``α·min(|A|, |B|)`` fruitless moves.
    block_sizes:
        Node counts |A|, |B| for the patience bound; defaults to the side
        counts within ``g`` (in band mode pass the real block sizes).
    lmax_b:
        Separate limit for side 1 (recursive bisection splits k unevenly,
        giving the two sides different targets); defaults to ``lmax``.
    edge_scale:
        Topology-aware mapping: every pair-internal gain is multiplied by
        the distance ``D[a, b]`` between the two blocks, so a move's
        priority is its communication-volume × distance saving.  Default
        ``None`` keeps raw cut gains (bit-identical classic path).
    gain_bias:
        Optional per-node additive gain term: the saving on edges into
        *third* blocks when the node switches sides (those edges stay cut
        either way under the cut objective, but their distance changes
        under mapping).  Computed by the caller from the parent graph.
    aux_weights:
        Optional ``(n, c-1)`` matrix of extra balance-constraint weights
        (the graph's weight dimensions beyond the first).  When given,
        moves must also keep every extra dimension under its own limit.
    aux_weight_a, aux_weight_b:
        Per-dimension totals of the two blocks (including mass outside
        ``g``); default: side sums within ``g``.
    aux_lmax_a, aux_lmax_b:
        Per-dimension limits for the extra constraints.
    """
    return FMSearch(
        g, side, movable=movable, edge_scale=edge_scale,
        gain_bias=gain_bias, aux_weights=aux_weights,
    ).run(
        rng, weight_a=weight_a, weight_b=weight_b, lmax=lmax, alpha=alpha,
        queue_selection=queue_selection, block_sizes=block_sizes,
        lmax_b=lmax_b, aux_weight_a=aux_weight_a, aux_weight_b=aux_weight_b,
        aux_lmax_a=aux_lmax_a, aux_lmax_b=aux_lmax_b,
    )

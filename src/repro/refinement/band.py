"""Boundary-band extraction (paper Section 5.2, Figure 2).

"Before a local search operation, we perform a bounded breadth first
search starting from the boundary of each block, and send copies of this
boundary array to the partner PE in the local search.  The local search is
then limited to this boundary area.  This way, for large graphs, only a
small fraction of each block has to be communicated."

The band of a block pair consists of all nodes of the two blocks within
BFS depth ``d`` of the pair's boundary.  :func:`extract_bands` emits it
in exactly the form FM reads (:class:`~repro.refinement.fm.FMLists`):
the band node ids, their sides and movability, each node's gain summed
over all of its arcs into the pair, the FM start boundary, and the
band-local adjacency of the arcs between band nodes.  An arc from a band
node to a pair node outside the band ends at a node FM may never move,
so FM needs that arc only in the start gain — no halo, no subgraph and
no node map is built for it.  (Edges into *third* blocks stay cut
regardless of a move between A and B, so they are irrelevant to the
pair's local search.)

Readers that want the band as a graph — the flow refiner, Figure 2's
communication measurement, the SPMD band exchange — get the band plus
its one-hop halo inside the two blocks as immovable context, built on
first access (:attr:`Band.graph`, :attr:`Band.smap`, :attr:`Band.side`,
:attr:`Band.movable`).

The pair boundaries are found from the adjacency rows of candidate
nodes.  By default every node of the pairs is a candidate; the
refinement drivers instead keep one candidate mask per level
(:func:`cut_candidates`, grown by :func:`add_candidates` after every
move) that always contains the nodes with a cut arc, so the seed scan
reads the rows near the cut instead of all ``2m`` arcs.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.subgraph import SubgraphMap, induced_subgraph
from ..kernels import dispatch
from .fm import FMLists

__all__ = ["Band", "extract_band", "extract_bands", "cut_candidates",
           "add_candidates"]


class Band:
    """The search region of one pairwise refinement step.

    ``nodes`` are the band's parent node ids, ascending; ``node_side``
    (0: block a, 1: block b) and ``node_movable`` (false on fixed
    vertices) are aligned with them.  ``fm`` is FM's start state over
    the same nodes (local id ``i`` is ``nodes[i]``), ready for
    :meth:`~repro.refinement.fm.FMSearch.from_lists`.  ``n_boundary``
    is the pair boundary size (a communication volume proxy).

    ``graph``, ``smap``, ``side`` and ``movable`` describe the band plus
    its one-hop halo inside the pair (halo nodes immovable) and are
    built on first access; ``graph_index[i]`` is the ``graph`` node of
    ``nodes[i]``.
    """

    def __init__(self, g: Graph, nodes: np.ndarray, node_side: np.ndarray,
                 node_movable: np.ndarray, fm: FMLists, n_boundary: int,
                 halo_arcs: np.ndarray, halo_arc_side: np.ndarray) -> None:
        self.nodes = nodes
        self.node_side = node_side
        self.node_movable = node_movable
        self.fm = fm
        self.n_boundary = n_boundary
        self._g = g
        # heads (and their sides) of the pair arcs leaving the band
        self._halo_arcs = halo_arcs
        self._halo_arc_side = halo_arc_side

    @cached_property
    def _with_halo(self):
        halo, first = np.unique(self._halo_arcs, return_index=True)
        n_band = len(self.nodes)
        selected = np.concatenate([self.nodes, halo])
        order = np.argsort(selected, kind="stable")
        selected = selected[order]
        side = np.concatenate([self.node_side,
                               self._halo_arc_side[first]])[order]
        movable = np.concatenate([self.node_movable,
                                  np.zeros(len(halo), dtype=bool)])[order]
        sub, smap = induced_subgraph(self._g, selected)
        return sub, smap, side, movable, np.flatnonzero(order < n_band)

    @property
    def graph(self) -> Graph:
        """Induced subgraph of the band plus its halo."""
        return self._with_halo[0]

    @property
    def smap(self) -> SubgraphMap:
        """Mapping of :attr:`graph` to the parent graph."""
        return self._with_halo[1]

    @property
    def side(self) -> np.ndarray:
        """0/1 side per :attr:`graph` node."""
        return self._with_halo[2]

    @property
    def movable(self) -> np.ndarray:
        """Movability per :attr:`graph` node (false on the halo)."""
        return self._with_halo[3]

    @property
    def graph_index(self) -> np.ndarray:
        """Position of each band node in :attr:`graph`."""
        return self._with_halo[4]


def cut_candidates(g: Graph, part: np.ndarray) -> np.ndarray:
    """Boolean mask of the nodes with a cut arc under ``part`` — the
    candidate mask a refinement driver starts a level with."""
    src = g.directed_sources()
    mask = np.zeros(g.n, dtype=bool)
    mask[src[part[src] != part[g.adjncy]]] = True
    return mask


def add_candidates(g: Graph, mask: np.ndarray, moved: np.ndarray) -> None:
    """Add the ``moved`` nodes and their neighbours to ``mask`` in place.

    Only a moved node or a neighbour of one can gain a cut arc, so a
    mask that contained every cut node before the moves still does.
    """
    moved = np.asarray(moved, dtype=np.int64)
    mask[moved] = True
    mask[g.adjncy[g.row_arcs(moved)[0]]] = True


def extract_bands(
    g: Graph,
    part: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    depth: int,
    within: Optional[np.ndarray] = None,
    candidates: Optional[np.ndarray] = None,
) -> List[Band]:
    """Extract the depth-``d`` boundary bands of several block pairs at once.

    ``pairs`` must be block-disjoint (a matching of the quotient graph,
    such as one color class of its edge coloring), so no band can reach
    into another: every node belongs to at most one pair, and one pass
    over the arrays serves all of them — one block-to-pair lookup, one
    scan of the candidates' rows for the pair boundaries, one
    ``band_bfs`` call with a region label per pair, one pass over the
    band nodes' rows, and one ``tolist`` per FM list.  ``result[i]`` is
    the band of ``pairs[i]``, identical to extracting that pair alone;
    bands may be empty when a pair's blocks share no edge.

    ``within`` (optional boolean node mask) further restricts the bands:
    the bounded BFS only visits (and FM only moves) nodes inside the
    mask — :func:`~repro.refinement.pairwise.pairwise_refinement`
    forwards its ``within`` here (the incremental repartitioner's dirty
    band) so local search cannot wander into clean regions.  Gains still
    count every arc into the pair.

    ``candidates`` (optional boolean node mask) limits the boundary scan
    to its nodes; it must contain every node with a cut arc (see
    :func:`cut_candidates`), so the seeds are exact.
    """
    part = np.asarray(part)
    ab = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n_pairs = len(ab)
    if n_pairs == 0:
        return []
    if ab.min() < 0 or len(np.unique(ab)) != 2 * n_pairs:
        raise ValueError("pairs must be block-disjoint pairs of block ids")
    n_blocks = max(int(part.max(initial=-1)), int(ab.max())) + 1
    # one spare slot so an unassigned node (block -1) maps to no pair
    pair_of_block = np.full(n_blocks + 1, -1, dtype=np.int64)
    partner = np.full(n_blocks + 1, -2, dtype=np.int64)
    pair_of_block[ab[:, 0]] = pair_of_block[ab[:, 1]] = np.arange(n_pairs)
    partner[ab[:, 0]], partner[ab[:, 1]] = ab[:, 1], ab[:, 0]
    label = pair_of_block[part]

    # pair boundaries: the candidates with an arc into their partner block
    if candidates is None:
        cand = np.flatnonzero(label >= 0)
    else:
        cand = np.flatnonzero(candidates)
        cand = cand[label[cand] >= 0]
    if within is not None:
        cand = cand[within[cand]]
    idx, counts = g.row_arcs(cand)
    hit = part[g.adjncy[idx]] == np.repeat(partner[part[cand]], counts)
    owner = np.repeat(np.arange(len(cand), dtype=np.int64), counts)
    seeds = cand[np.bincount(owner[hit], minlength=len(cand)) > 0]
    region = label if within is None else np.where(within, label, -1)

    # bounded BFS inside each pair (one ``band_bfs`` call, one region
    # label per pair), additionally clipped to ``within`` when given
    if len(seeds):
        local = dispatch("band_bfs", g, seeds, region, depth)
    else:
        local = np.full(g.n, -1, dtype=np.int64)

    # band nodes grouped by pair (stable, so ids stay ascending within);
    # the BFS level array is reused for each band node's pair-local id
    nodes = np.flatnonzero(local >= 0)
    node_pair = label[nodes]
    if n_pairs > 1:
        order = np.argsort(node_pair, kind="stable")
        nodes, node_pair = nodes[order], node_pair[order]
    n_band = len(nodes)
    sizes = np.bincount(node_pair, minlength=n_pairs)
    bounds = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    local[nodes] = np.arange(n_band) - np.repeat(bounds[:-1], sizes)

    # the pair arcs of the band nodes, each row in target order (the
    # parent's row order whenever its rows are sorted)
    idx, counts = g.row_arcs(nodes)
    src = np.repeat(np.arange(n_band, dtype=np.int64), counts)
    tgt = g.adjncy[idx]
    keep = label[tgt] == np.repeat(node_pair, counts)
    src, tgt, w = src[keep], tgt[keep], g.adjwgt[idx[keep]]
    key = src * g.n + tgt
    if (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        src, tgt, w = src[order], tgt[order], w[order]

    node_block = part[nodes]
    node_side = (node_block == ab[node_pair, 1]).astype(np.int8)
    movable = (np.ones(n_band, dtype=bool) if g.fixed is None
               else g.fixed[nodes] < 0)
    cross = part[tgt] != node_block[src]
    gains = np.bincount(src, weights=np.where(cross, w, -w),
                        minlength=n_band)
    start = np.zeros(n_band, dtype=bool)
    start[src[cross]] = True
    init = np.flatnonzero(start & movable)
    init_bounds = np.searchsorted(init, bounds).tolist()

    # band-internal arcs in band-local ids; the rest lead to the halo
    head = local[tgt]
    inner = head >= 0
    outer = ~inner
    halo_arcs = tgt[outer]
    halo_arc_side = node_side[src[outer]] ^ cross[outer]
    halo_bounds = np.searchsorted(src[outer], bounds).tolist()
    row_end = np.zeros(n_band + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[inner], minlength=n_band), out=row_end[1:])
    # per pair a local xadj of its size + 1 entries, concatenated
    rep = np.repeat(np.arange(n_pairs), sizes + 1)
    xadj = (row_end[np.arange(n_band + n_pairs) - rep]
            - row_end[bounds[:-1]][rep])

    xadj_l = xadj.tolist()
    adjncy_l = head[inner].tolist()
    delta_l = (2.0 * w[inner]).tolist()
    vwgt_l = g.vwgt[nodes].tolist()
    side_l = node_side.tolist()
    movable_l = movable.tolist()
    gains_l = gains.tolist()
    init_l = local[nodes[init]].tolist()
    row_end = row_end.tolist()
    n_boundary = np.bincount(label[seeds], minlength=n_pairs).tolist()
    bounds = bounds.tolist()
    bands = []
    for p in range(n_pairs):
        lo, hi = bounds[p], bounds[p + 1]
        a0, a1 = row_end[lo], row_end[hi]
        fm = FMLists(
            xadj=xadj_l[lo + p:hi + p + 1], adjncy=adjncy_l[a0:a1],
            delta=delta_l[a0:a1], vwgt=vwgt_l[lo:hi], side=side_l[lo:hi],
            movable=movable_l[lo:hi], gains=gains_l[lo:hi],
            init=init_l[init_bounds[p]:init_bounds[p + 1]],
        )
        h0, h1 = halo_bounds[p], halo_bounds[p + 1]
        bands.append(Band(g, nodes[lo:hi], node_side[lo:hi],
                          movable[lo:hi], fm, n_boundary[p],
                          halo_arcs[h0:h1], halo_arc_side[h0:h1]))
    return bands


def extract_band(
    g: Graph,
    part: np.ndarray,
    a: int,
    b: int,
    depth: int,
    within: Optional[np.ndarray] = None,
) -> Tuple[Band, np.ndarray]:
    """Extract the depth-``d`` boundary band between blocks ``a`` and ``b``
    (:func:`extract_bands` for the one pair).

    Returns ``(band, pair_nodes)`` where ``pair_nodes`` are all parent
    nodes of the two blocks (used for block bookkeeping).
    """
    part = np.asarray(part)
    band = extract_bands(g, part, [(a, b)], depth, within=within)[0]
    return band, np.flatnonzero((part == a) | (part == b))

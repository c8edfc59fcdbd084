"""Boundary-band extraction (paper Section 5.2, Figure 2).

"Before a local search operation, we perform a bounded breadth first
search starting from the boundary of each block, and send copies of this
boundary array to the partner PE in the local search.  The local search is
then limited to this boundary area.  This way, for large graphs, only a
small fraction of each block has to be communicated."

The band consists of all nodes of the two blocks within BFS depth ``d`` of
the pair's boundary; their one-hop halo inside the two blocks is included
as immovable context so FM sees every edge incident to a movable node that
its moves can affect.  (Edges into *third* blocks stay cut regardless of a
move between A and B, so they are irrelevant to the pair's local search.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.subgraph import SubgraphMap, induced_subgraphs
from ..kernels import dispatch

__all__ = ["Band", "extract_band", "extract_bands"]


@dataclass
class Band:
    """The search graph of one pairwise refinement step."""

    graph: Graph          # induced subgraph: band nodes + halo
    smap: SubgraphMap     # mapping to the parent graph
    side: np.ndarray      # 0 (block a) / 1 (block b) per band-graph node
    movable: np.ndarray   # false on halo nodes
    n_boundary: int       # pair boundary size (communication volume proxy)


def extract_bands(
    g: Graph,
    part: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    depth: int,
    within: Optional[np.ndarray] = None,
) -> List[Band]:
    """Extract the depth-``d`` boundary bands of several block pairs at once.

    ``pairs`` must be block-disjoint (a matching of the quotient graph,
    such as one color class of its edge coloring), so no band can reach
    into another: every node belongs to at most one pair, and one pass
    over the arrays serves all of them — one block-to-pair lookup, one
    scan for the pair boundaries, one ``band_bfs`` call with a region
    label per pair, one halo pass and one induced-subgraph build ordered
    by (pair, node id).  ``result[i]`` is the band of ``pairs[i]``,
    identical to extracting that pair alone; bands may be empty when a
    pair's blocks share no edge.

    ``within`` (optional boolean node mask) further restricts the bands:
    the bounded BFS only visits (and FM only moves) nodes inside the
    mask — the incremental repartitioner passes its dirty band here so
    local search cannot wander into clean regions.  The one-hop halo is
    still drawn from the full pair so FM sees every affected edge.
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

    # pair boundaries: tails of the arcs into the tail's partner block
    # (-2 marks a node outside every pair, matching no block)
    tail_partner = np.repeat(partner[part], np.diff(g.xadj))
    crossing = np.flatnonzero(part[g.adjncy] == tail_partner)
    seeds = np.unique(np.searchsorted(g.xadj, crossing, side="right") - 1)
    region = label
    if within is not None:
        seeds = seeds[within[seeds]]
        region = np.where(within, label, -1)

    # bounded BFS inside each pair (one ``band_bfs`` call, one region
    # label per pair), additionally clipped to ``within`` when given
    if len(seeds):
        in_band = dispatch("band_bfs", g, seeds, region, depth) >= 0
    else:
        in_band = np.zeros(g.n, dtype=bool)

    # halo: neighbours of band nodes in the same pair but not the band,
    # found from the band's own arcs only
    band_nodes = np.flatnonzero(in_band)
    idx, counts = g.row_arcs(band_nodes)
    nbrs = g.adjncy[idx]
    halo = nbrs[(label[nbrs] == np.repeat(label[band_nodes], counts))
                & ~in_band[nbrs]]
    selected = in_band.copy()
    selected[halo] = True
    selected = np.flatnonzero(selected)

    # group the selection by pair (stable, so ids stay ascending within)
    sel_pair = label[selected]
    order = np.argsort(sel_pair, kind="stable")
    selected, sel_pair = selected[order], sel_pair[order]
    sizes = np.bincount(sel_pair, minlength=n_pairs)
    bounds = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    subs = induced_subgraphs(g, selected, bounds)

    side = (part[selected] == ab[sel_pair, 1]).astype(np.int8)
    movable = in_band[selected]
    if g.fixed is not None:
        # fixed vertices travel with the band as context but never move
        movable &= g.fixed[selected] < 0
    n_boundary = np.bincount(label[seeds], minlength=n_pairs).tolist()
    bounds = bounds.tolist()
    return [
        Band(graph=sub, smap=smap, side=side[lo:hi], movable=movable[lo:hi],
             n_boundary=nb)
        for (sub, smap), lo, hi, nb in zip(subs, bounds[:-1], bounds[1:],
                                           n_boundary)
    ]


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

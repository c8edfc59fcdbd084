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
from typing import Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.subgraph import SubgraphMap, induced_subgraph
from ..kernels import dispatch

__all__ = ["Band", "extract_band"]


@dataclass
class Band:
    """The search graph of one pairwise refinement step."""

    graph: Graph          # induced subgraph: band nodes + halo
    smap: SubgraphMap     # mapping to the parent graph
    side: np.ndarray      # 0 (block a) / 1 (block b) per band-graph node
    movable: np.ndarray   # false on halo nodes
    n_boundary: int       # pair boundary size (communication volume proxy)


def extract_band(
    g: Graph,
    part: np.ndarray,
    a: int,
    b: int,
    depth: int,
    within: Optional[np.ndarray] = None,
) -> Tuple[Band, np.ndarray]:
    """Extract the depth-``d`` boundary band between blocks ``a`` and ``b``.

    Returns ``(band, pair_nodes)`` where ``pair_nodes`` are all parent
    nodes of the two blocks (used for block bookkeeping).  The band may be
    empty when the blocks share no edge.

    ``within`` (optional boolean node mask) further restricts the band:
    the bounded BFS only visits (and FM only moves) nodes inside the
    mask — the incremental repartitioner passes its dirty band here so
    local search cannot wander into clean regions.  The one-hop halo is
    still drawn from the full pair so FM sees every affected edge.
    """
    part = np.asarray(part)
    in_pair = (part == a) | (part == b)
    pair_nodes = np.nonzero(in_pair)[0]
    region = in_pair if within is None else (in_pair & within)

    # pair boundary: nodes of a adjacent to b and vice versa, found from
    # the pair's own arcs only
    idx, counts = g.row_arcs(pair_nodes)
    other = np.repeat(np.where(part[pair_nodes] == a, b, a), counts)
    crossing = part[g.adjncy[idx]] == other
    seeds = np.unique(np.repeat(pair_nodes, counts)[crossing])
    if within is not None and len(seeds):
        seeds = seeds[within[seeds]]
    if len(seeds) == 0:
        sub, smap = induced_subgraph(g, [])
        empty = Band(graph=sub, smap=smap, side=np.zeros(0, dtype=np.int8),
                     movable=np.zeros(0, dtype=bool), n_boundary=0)
        return empty, pair_nodes

    # bounded BFS inside the two blocks (the ``band_bfs`` kernel),
    # additionally clipped to ``within`` when given
    level = dispatch("band_bfs", g, seeds, region, depth)
    band_mask = level >= 0

    # halo: neighbours of band nodes that are in the pair but not the
    # band, found from the band's own arcs only
    nbrs = g.gather_neighbors(np.nonzero(band_mask)[0])
    halo = nbrs[in_pair[nbrs] & ~band_mask[nbrs]]
    selected_mask = band_mask.copy()
    selected_mask[halo] = True
    selected = np.nonzero(selected_mask)[0]

    sub, smap = induced_subgraph(g, selected)
    side = (part[selected] == b).astype(np.int8)
    movable = band_mask[selected]
    if g.fixed is not None:
        # fixed vertices travel with the band as context but never move
        movable &= g.fixed[selected] < 0
    return (
        Band(graph=sub, smap=smap, side=side, movable=movable,
             n_boundary=len(seeds)),
        pair_nodes,
    )



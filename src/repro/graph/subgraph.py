"""Induced-subgraph extraction and node relabelling.

Pairwise refinement (paper Section 5.2) repeatedly works on the subgraph
induced by two blocks (or their boundary bands), so extraction is written
with numpy array passes over the selected rows' arcs only, rather than
per-edge Python loops or passes over the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .csr import Graph

__all__ = ["SubgraphMap", "induced_subgraph", "relabel"]


@dataclass(frozen=True)
class SubgraphMap:
    """Mapping between a subgraph and its parent graph.

    ``to_parent[i]`` is the parent id of subgraph node ``i``;
    ``to_sub[v]`` is the subgraph id of parent node ``v`` or ``-1``.
    ``to_sub`` has the parent's length, so it is derived from
    ``to_parent`` on first access rather than stored: a small subgraph
    of a large graph (a boundary band) costs nothing of the parent's size.
    """

    to_parent: np.ndarray
    n_parent: int

    @cached_property
    def to_sub(self) -> np.ndarray:
        to_sub = np.full(self.n_parent, -1, dtype=np.int64)
        to_sub[self.to_parent] = np.arange(len(self.to_parent),
                                           dtype=np.int64)
        return to_sub

    def lift(self, sub_nodes: Sequence[int]) -> np.ndarray:
        """Map subgraph node ids back to parent ids."""
        return self.to_parent[np.asarray(sub_nodes, dtype=np.int64)]


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Tuple[Graph, SubgraphMap]:
    """Extract the subgraph induced by ``nodes``.

    Node and edge weights are preserved; coordinates, constraint weights
    and fixed-vertex pins are sliced through.  Nodes are deduplicated and
    renumbered ``0..len(nodes)-1`` in ascending id order.  Only the
    selected rows' arcs are read, so the cost follows the subgraph.
    """
    if not isinstance(nodes, np.ndarray):
        nodes = list(nodes)
    sel = np.unique(np.asarray(nodes, dtype=np.int64))
    if len(sel) and (sel[0] < 0 or sel[-1] >= g.n):
        raise ValueError("node id out of range")
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[sel] = np.arange(len(sel), dtype=np.int64)

    idx, counts = g.row_arcs(sel)
    s_src = np.repeat(np.arange(len(sel), dtype=np.int64), counts)
    s_dst = pos[g.adjncy[idx]]
    keep = s_dst >= 0
    s_src, s_dst, s_w = s_src[keep], s_dst[keep], g.adjwgt[idx[keep]]

    # order each row by target: already so when the parent's rows are
    # sorted (the usual case), so sort only when a row is not
    key = s_src * len(sel) + s_dst
    if (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        s_dst, s_w = s_dst[order], s_w[order]
    xadj = np.zeros(len(sel) + 1, dtype=np.int64)
    np.cumsum(np.bincount(s_src, minlength=len(sel)), out=xadj[1:])
    sub = Graph(
        xadj, s_dst, s_w, g.vwgt[sel], validate=False,
        coords=None if g.coords is None else g.coords[sel],
        vwgts=None if g.n_constraints == 1 else g.vwgts[sel],
        fixed=None if g.fixed is None else g.fixed[sel],
    )
    return sub, SubgraphMap(to_parent=sel, n_parent=g.n)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Return a copy of ``g`` with node ``v`` renamed to ``perm[v]``.

    ``perm`` must be a permutation of ``0..n-1``.  Useful for testing
    label-invariance of algorithms.
    """
    perm = np.asarray(perm, dtype=np.int64)
    if len(perm) != g.n or not np.array_equal(np.sort(perm), np.arange(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    inv = np.empty(g.n, dtype=np.int64)
    inv[perm] = np.arange(g.n)
    src = perm[g.directed_sources()]
    dst = perm[g.adjncy]
    order = np.lexsort((dst, src))
    xadj = np.zeros(g.n + 1, dtype=np.int64)
    np.add.at(xadj, src + 1, 1)
    np.cumsum(xadj, out=xadj)
    vwgt = np.empty_like(g.vwgt)
    vwgt[perm] = g.vwgt
    vwgts = None
    if g.n_constraints > 1:
        vwgts = np.empty_like(g.vwgts)
        vwgts[perm] = g.vwgts
    fixed = None
    if g.fixed is not None:
        fixed = np.empty_like(g.fixed)
        fixed[perm] = g.fixed
    coords = None
    if g.coords is not None:
        coords = np.empty_like(g.coords)
        coords[perm] = g.coords
    return Graph(xadj, dst[order], g.adjwgt[order], vwgt, coords=coords,
                 validate=False, vwgts=vwgts, fixed=fixed)

"""Reference (pure-Python loop) implementations of the hot-path kernels.

These are the executable specification: straight per-node / per-edge
loops over the CSR arrays, written for obviousness, not speed.  The
``numpy`` backend must return **bit-identical** results — every float
accumulation here happens in the same order as its vectorised
counterpart (sequential in arc order), so even rounding agrees.  The
differential suite ``tests/test_kernel_equivalence.py`` enforces this.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..graph.csr import Graph
from .registry import register

__all__ = ["RATING_NAMES", "band_regions"]

#: the §3.1 rating functions every backend must implement
RATING_NAMES: Tuple[str, ...] = (
    "weight", "expansion", "expansion_star", "expansion_star2", "inner_outer",
)


def _weighted_degrees_loop(g: Graph) -> np.ndarray:
    """Out(v) = Σ ω({v,x}) by scalar accumulation in arc order."""
    out = np.zeros(g.n, dtype=np.float64)
    for v in range(g.n):
        acc = 0.0
        for idx in range(g.xadj[v], g.xadj[v + 1]):
            acc += g.adjwgt[idx]
        out[v] = acc
    return out


@register("edge_ratings", "python")
def edge_ratings(g: Graph, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                 rating: str) -> np.ndarray:
    """Rate the edge list ``(us, vs, ws)`` one edge at a time."""
    if rating not in RATING_NAMES:
        raise ValueError(
            f"unknown rating {rating!r}; choose from {sorted(RATING_NAMES)}"
        )
    out = np.empty(len(ws), dtype=np.float64)
    if rating == "inner_outer":
        deg = _weighted_degrees_loop(g)
        for i in range(len(ws)):
            w = ws[i]
            denom = deg[us[i]] + deg[vs[i]] - 2.0 * w
            out[i] = w / denom if denom > 0 else np.inf
        return out
    for i in range(len(ws)):
        w = ws[i]
        cu, cv = g.vwgt[us[i]], g.vwgt[vs[i]]
        if rating == "weight":
            out[i] = w
        elif rating == "expansion":
            out[i] = w / (cu + cv)
        elif rating == "expansion_star":
            out[i] = w / (cu * cv)
        else:  # expansion_star2
            out[i] = w * w / (cu * cv)
    return out


@register("contract_edges", "python")
def contract_edges(
    g: Graph, coarse_map: np.ndarray, n_coarse: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate the contracted graph's CSR arrays edge by edge.

    Walks every directed arc once (in CSR order), keeps the ``cu < cv``
    direction, merges parallel edges by dict accumulation, then emits a
    symmetric CSR with each adjacency list sorted by neighbour id —
    exactly the layout the vectorised lexsort assembly produces.
    """
    vwgt = np.zeros(n_coarse, dtype=np.float64)
    for v in range(g.n):
        vwgt[coarse_map[v]] += g.vwgt[v]

    # upper triangle, parallel edges merged in arc order
    merged: List[Dict[int, float]] = [dict() for _ in range(n_coarse)]
    for v in range(g.n):
        cu = int(coarse_map[v])
        for idx in range(g.xadj[v], g.xadj[v + 1]):
            cv = int(coarse_map[g.adjncy[idx]])
            if cu < cv:
                row = merged[cu]
                row[cv] = row.get(cv, 0.0) + g.adjwgt[idx]

    # mirror into full adjacency, neighbours sorted ascending
    nbrs: List[Dict[int, float]] = [dict() for _ in range(n_coarse)]
    for cu in range(n_coarse):
        for cv, w in merged[cu].items():
            nbrs[cu][cv] = w
            nbrs[cv][cu] = w
    xadj = np.zeros(n_coarse + 1, dtype=np.int64)
    adjncy: List[int] = []
    adjwgt: List[float] = []
    for cu in range(n_coarse):
        for cv in sorted(nbrs[cu]):
            adjncy.append(cv)
            adjwgt.append(nbrs[cu][cv])
        xadj[cu + 1] = len(adjncy)
    return (
        xadj,
        np.asarray(adjncy, dtype=np.int64),
        np.asarray(adjwgt, dtype=np.float64),
        vwgt,
    )


@register("gain_boundary", "python")
def gain_boundary(g: Graph, side: np.ndarray, scale: float = 1.0,
                  bias=None) -> Tuple[np.ndarray, np.ndarray]:
    """Initial FM gains and boundary nodes under a 0/1 side assignment.

    ``gain(v) = ω(edges to the other side) − ω(edges to the own side)``;
    a node is boundary when it has at least one crossing edge.

    ``scale``/``bias`` support the topology-mapping objective:
    ``gain'(v) = scale · gain(v) + bias[v]`` (bias defaults to zero).
    The scaling is applied *after* the raw accumulation, in the same
    order in every backend, so rounding stays bit-identical.
    """
    gains = np.zeros(g.n, dtype=np.float64)
    boundary: List[int] = []
    for v in range(g.n):
        acc = 0.0
        crossing = False
        sv = side[v]
        for idx in range(g.xadj[v], g.xadj[v + 1]):
            if side[g.adjncy[idx]] != sv:
                acc += g.adjwgt[idx]
                crossing = True
            else:
                acc -= g.adjwgt[idx]
        gains[v] = acc
        if crossing:
            boundary.append(v)
    if scale != 1.0:
        gains = gains * float(scale)
    if bias is not None:
        gains = gains + np.asarray(bias, dtype=np.float64)
    return gains, np.asarray(boundary, dtype=np.int64)


def band_regions(allowed: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Per-node region labels of a ``band_bfs`` call (``-1``: no region).

    Integer labels pass through.  A boolean mask is the one-region case:
    allowed nodes form region 0 and the seeds join it too, so a seed
    expands whether or not it is itself allowed.
    """
    allowed = np.asarray(allowed)
    if allowed.dtype != np.bool_:
        return np.asarray(allowed, dtype=np.int64)
    region = np.where(allowed, 0, -1)
    region[np.asarray(seeds, dtype=np.int64)] = 0
    return region


@register("band_bfs", "python")
def band_bfs(g: Graph, seeds: np.ndarray, allowed: np.ndarray,
             max_depth: int) -> np.ndarray:
    """Bounded BFS levels from ``seeds``, each search kept in its region.

    ``allowed`` is a per-node region label (``-1``: outside every region)
    or a boolean mask (the one-region case, see :func:`band_regions`).
    A neighbour joins the frontier only when it lies in the region of
    the node that reaches it, so one call runs many disjoint searches.
    Level values are 0-based (seeds at 0); ``-1`` marks unreached nodes.
    ``max_depth`` counts reached levels: 1 means "the seeds only".
    """
    region = band_regions(allowed, seeds)
    level = np.full(g.n, -1, dtype=np.int64)
    frontier: List[int] = []
    for s in seeds:
        s = int(s)
        if level[s] == -1:
            level[s] = 0
            frontier.append(s)
    depth = 0
    while frontier and depth + 1 < max_depth:
        depth += 1
        nxt: List[int] = []
        for v in frontier:
            r = region[v]
            if r < 0:
                continue
            for idx in range(g.xadj[v], g.xadj[v + 1]):
                u = int(g.adjncy[idx])
                if level[u] == -1 and region[u] == r:
                    level[u] = depth
                    nxt.append(u)
        frontier = nxt
    return level

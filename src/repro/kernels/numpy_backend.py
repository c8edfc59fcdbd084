"""Vectorised (numpy) implementations of the hot-path kernels.

Each kernel is the segment-reduce / bincount formulation of its
reference loop in :mod:`repro.kernels.python_backend`, accumulating
floats in the same order (sequential in arc order) so results are
bit-identical.  These are the production backend
(``KappaConfig.kernel_backend = "numpy"``); perfbench's ``--trace 1``
records report their per-kernel calls and time (``kernels.<name>.s``).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..graph.csr import Graph
from .python_backend import band_regions
from .registry import register

__all__ = ["RATING_FNS"]


def _weight(g: Graph, us, vs, ws) -> np.ndarray:
    """The classical rating: the edge weight itself."""
    return ws.astype(np.float64, copy=True)


def _expansion(g: Graph, us, vs, ws) -> np.ndarray:
    return ws / (g.vwgt[us] + g.vwgt[vs])


def _expansion_star(g: Graph, us, vs, ws) -> np.ndarray:
    return ws / (g.vwgt[us] * g.vwgt[vs])


def _expansion_star2(g: Graph, us, vs, ws) -> np.ndarray:
    return ws * ws / (g.vwgt[us] * g.vwgt[vs])


def _inner_outer(g: Graph, us, vs, ws) -> np.ndarray:
    out = g.weighted_degrees()
    denom = out[us] + out[vs] - 2.0 * ws
    # a component consisting of the single edge {u,v} has denom == 0: the
    # edge has no outer connectivity at all, the best possible contraction
    rating = np.empty(len(ws), dtype=np.float64)
    zero = denom <= 0
    rating[~zero] = ws[~zero] / denom[~zero]
    rating[zero] = np.inf
    return rating


#: §3.1 rating functions, signature ``fn(g, us, vs, ws) -> ratings``
RATING_FNS: Dict[str, Callable] = {
    "weight": _weight,
    "expansion": _expansion,
    "expansion_star": _expansion_star,
    "expansion_star2": _expansion_star2,
    "inner_outer": _inner_outer,
}


@register("edge_ratings", "numpy")
def edge_ratings(g: Graph, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                 rating: str) -> np.ndarray:
    """Rate the edge list ``(us, vs, ws)`` in one vectorised pass."""
    try:
        fn = RATING_FNS[rating]
    except KeyError:
        raise ValueError(
            f"unknown rating {rating!r}; choose from {sorted(RATING_FNS)}"
        ) from None
    return fn(g, us, vs, ws)


@register("contract_edges", "numpy")
def contract_edges(
    g: Graph, coarse_map: np.ndarray, n_coarse: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate the contracted graph's CSR arrays with sort + segment sums.

    Maps every arc to coarse ids, keeps the ``cu < cv`` direction (which
    also drops the contracted matching edges, ``cu == cv``), merges
    parallel edges by a stable sort + ``bincount`` (sequential in arc
    order), and assembles the symmetric CSR with one ``argsort`` over
    the merged edges' transposed keys.
    """
    vwgt = np.bincount(coarse_map, weights=g.vwgt, minlength=n_coarse)

    src = coarse_map[g.directed_sources()]
    dst = coarse_map[g.adjncy]
    keep = src < dst
    cu, cv, cw = src[keep], dst[keep], g.adjwgt[keep]
    if len(cu):
        key = cu * n_coarse + cv
        order = np.argsort(key, kind="stable")
        key, cu, cv, cw = key[order], cu[order], cv[order], cw[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        cw = np.bincount(np.cumsum(first) - 1, weights=cw)
        cu, cv = cu[first], cv[first]

    # row r lists its lower neighbours (edges (u, r), u < r) ascending,
    # then its upper ones (edges (r, v)).  The edges are unique and sorted
    # by (cu, cv), which already orders the upper entries; one argsort of
    # the (cv, cu) keys orders the lower ones (unique keys: any sort is
    # exact).  Each entry lands at its rank within its row's run.
    n_low = np.bincount(cv, minlength=n_coarse)
    n_up = np.bincount(cu, minlength=n_coarse)
    xadj = np.zeros(n_coarse + 1, dtype=np.int64)
    np.cumsum(n_low + n_up, out=xadj[1:])
    slot = np.arange(len(cu), dtype=np.int64)
    adjncy = np.empty(2 * len(cu), dtype=np.int64)
    adjwgt = np.empty(2 * len(cu), dtype=np.float64)
    lower = np.argsort(cv * n_coarse + cu)
    at = slot + (np.cumsum(n_up) - n_up)[cv[lower]]
    adjncy[at], adjwgt[at] = cu[lower], cw[lower]
    at = slot + np.cumsum(n_low)[cu]
    adjncy[at], adjwgt[at] = cv, cw
    return xadj, adjncy, adjwgt, vwgt


@register("gain_boundary", "numpy")
def gain_boundary(g: Graph, side: np.ndarray, scale: float = 1.0,
                  bias=None) -> Tuple[np.ndarray, np.ndarray]:
    """Initial FM gains and boundary nodes, one bincount over all arcs.

    ``gain'(v) = scale · gain(v) + bias[v]`` (mapping objective); the
    transform is applied after the raw accumulation so rounding matches
    the reference backend bit for bit.
    """
    src = g.directed_sources()
    crossing = side[src] != side[g.adjncy]
    signed = np.where(crossing, g.adjwgt, -g.adjwgt)
    gains = np.bincount(src, weights=signed, minlength=g.n)
    if scale != 1.0:
        gains = gains * float(scale)
    if bias is not None:
        gains = gains + np.asarray(bias, dtype=np.float64)
    on_boundary = np.zeros(g.n, dtype=bool)
    on_boundary[src[crossing]] = True
    return gains, np.nonzero(on_boundary)[0]


@register("band_bfs", "numpy")
def band_bfs(g: Graph, seeds: np.ndarray, allowed: np.ndarray,
             max_depth: int) -> np.ndarray:
    """Bounded region-restricted BFS, whole frontiers expanded per step.

    Each round gathers all frontier adjacency slices in one shot
    (:meth:`Graph.row_arcs`), keeps the unvisited neighbours in their
    source's region, and deduplicates them without a sort: a scratch
    slot array remembers which candidate wrote each node last.
    """
    region = band_regions(allowed, seeds)
    level = np.full(g.n, -1, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.int64)
    if len(seeds) == 0:
        return level
    level[seeds] = 0
    frontier = seeds[region[seeds] >= 0]
    slot = np.empty(g.n, dtype=np.int64)
    depth = 0
    while len(frontier) and depth + 1 < max_depth:
        depth += 1
        idx, counts = g.row_arcs(frontier)
        cand = g.adjncy[idx]
        cand = cand[(level[cand] == -1)
                    & (region[cand] == np.repeat(region[frontier], counts))]
        if len(cand) == 0:
            break
        ids = np.arange(len(cand), dtype=np.int64)
        slot[cand] = ids
        cand = cand[slot[cand] == ids]
        level[cand] = depth
        frontier = cand
    return level

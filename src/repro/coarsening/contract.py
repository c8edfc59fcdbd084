"""Edge contraction (paper Section 2).

"Contracting an edge {u, v} means to replace the nodes u and v by a new
node x connected to the former neighbors of u and v.  We set
c(x) = c(u) + c(v).  If replacing edges of the form {u, w}, {v, w} would
generate two parallel edges {x, w}, we insert a single edge with
ω({x, w}) = ω({u, w}) + ω({v, w})."

:func:`contract_matching` contracts a whole matching at once (one
coarsening level); :func:`project_partition` performs the corresponding
uncontraction of a partition vector.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.csr import Graph
from ..kernels import dispatch

__all__ = ["contract_matching", "project_partition"]


def contract_matching(g: Graph, matching: np.ndarray) -> Tuple[Graph, np.ndarray]:
    """Contract all matched pairs simultaneously.

    Returns ``(coarse, coarse_map)`` where ``coarse_map[v]`` is the coarse
    node that fine node ``v`` maps to.  Node weights are summed over the
    constituents, parallel edges merged by summing, self-edges (the
    contracted matching edges themselves) dropped.  Coordinates, when
    present, become the node-weight-weighted centroid of the constituents.

    The edge aggregation (map arcs, drop intra-pair edges, merge
    parallels, assemble the coarse CSR) is the ``contract_edges`` kernel
    of :mod:`repro.kernels`, dispatched to the active backend.
    """
    matching = np.asarray(matching, dtype=np.int64)
    if matching.shape != (g.n,):
        raise ValueError("matching must have one entry per node")
    rep = np.minimum(np.arange(g.n, dtype=np.int64), matching)
    # coarse ids number the representatives in ascending order
    is_rep = np.zeros(g.n, dtype=bool)
    is_rep[rep] = True
    ids = np.cumsum(is_rep) - 1
    coarse_map = ids[rep]
    n_coarse = int(ids[-1]) + 1 if g.n else 0

    xadj, adjncy, adjwgt, vwgt = dispatch(
        "contract_edges", g, coarse_map, n_coarse
    )

    coords = None
    if g.coords is not None:
        dim = g.coords.shape[1]
        coords = np.zeros((n_coarse, dim), dtype=np.float64)
        for d in range(dim):
            np.add.at(coords[:, d], coarse_map, g.coords[:, d] * g.vwgt)
        denom = np.where(vwgt > 0, vwgt, 1.0)
        coords /= denom[:, None]

    # extra constraint dimensions aggregate exactly like the first:
    # c_d(x) = c_d(u) + c_d(v)
    vwgts = None
    if g.n_constraints > 1:
        vwgts = np.zeros((n_coarse, g.n_constraints), dtype=np.float64)
        np.add.at(vwgts, coarse_map, g.vwgts)
        vwgts[:, 0] = vwgt  # keep the kernel's dim-0 accumulation order

    # a fixed vertex never matches (matching treats it as forbidden), so
    # each coarse node contains at most one fixed target; max over the
    # constituents (free = -1) propagates it
    fixed = None
    if g.fixed is not None:
        fixed = np.full(n_coarse, -1, dtype=np.int64)
        np.maximum.at(fixed, coarse_map, g.fixed)

    coarse = Graph(xadj, adjncy, adjwgt, vwgt, coords=coords, validate=False,
                   vwgts=vwgts, fixed=fixed)
    return coarse, coarse_map


def project_partition(coarse_part: np.ndarray, coarse_map: np.ndarray) -> np.ndarray:
    """Uncontract: lift a partition of the coarse graph to the fine graph
    ("a good partition at one level […] will also be a good partition on
    the next finer level", paper Section 2)."""
    return np.asarray(coarse_part, dtype=np.int64)[coarse_map]

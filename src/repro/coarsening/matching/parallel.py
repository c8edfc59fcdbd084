"""Parallel matching (paper Section 3.3).

"We first compute a preliminary partition of the graph […] to increase
locality for the computation of matchings.  We then combine a sequential
matching algorithm running on each partition and a parallel matching
algorithm running on the gap graph.  The gap graph consists of those edges
{u, v} where u and v reside on different PEs and ω({u, v}) exceeds the
weight of the edges that may have been matched by the local matching
algorithms to u and v.  The parallel matching algorithm itself iteratively
matches edges that are locally heaviest both at u and v until no more
edges can be matched."  (the Manne–Bisseling scheme [16])

Two entry points share all kernels:

* :func:`parallel_matching` — deterministic sequential simulation (used by
  the fast quality-experiment path);
* :func:`parallel_matching_spmd` — the same algorithm running as an SPMD
  program against the :class:`~repro.engine.base.Comm` protocol (so it
  runs on any execution engine), exercising real message
  passing.  Both produce identical matchings for identical seeds because
  the locally-dominant matching is canonical under a global total order on
  edges (score, then edge id).

Everything the SPMD version exchanges in bulk is a numpy ``int64`` array,
the flat integer buffer an MPI code would send: each PE's matched pairs
(a ``(P, 2)`` array), its per-round gap proposals (edge ids, one array
per destination PE) and the dominant edge set.  The wire codec copies
one buffer per array, and the sim engine charges its ``nbytes``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...engine.base import Comm
from ...graph.csr import Graph
from ...graph.subgraph import induced_subgraph
from ..ratings import rate_edges
from .base import empty_matching
from .registry import dispatch

__all__ = [
    "gap_edge_indices",
    "locally_dominant_matching",
    "parallel_matching",
    "parallel_matching_spmd",
]


def _local_matching(
    g: Graph, nodes: np.ndarray, algorithm: str, rating: str,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Run a sequential matcher on the subgraph induced by ``nodes``;
    return the matched pairs in *global* ids as a ``(P, 2)`` int64 array
    (each pair once, lower local id first)."""
    sub, smap = induced_subgraph(g, nodes)
    if sub.m == 0:
        return np.empty((0, 2), dtype=np.int64)
    # fixed vertices (carried into the subgraph) are unmatchable
    forbidden = None if sub.fixed is None else sub.fixed >= 0
    local = dispatch(sub, algorithm=algorithm, rating=rating, rng=rng,
                     forbidden=forbidden)
    a = np.nonzero(local > np.arange(sub.n))[0]
    return np.stack([smap.to_parent[a], smap.to_parent[local[a]]], axis=1)


def _apply_pairs(matching: np.ndarray, pairs: np.ndarray) -> None:
    """Scatter the ``(P, 2)`` matched ``pairs`` into ``matching``."""
    matching[pairs[:, 0]] = pairs[:, 1]
    matching[pairs[:, 1]] = pairs[:, 0]


def _drop_fixed_endpoints(g: Graph, us: np.ndarray, vs: np.ndarray,
                          gap: np.ndarray) -> np.ndarray:
    """Remove gap edges touching a fixed vertex (they never match)."""
    if g.fixed is None:
        return gap
    pinned = g.fixed >= 0
    return gap[~(pinned[us[gap]] | pinned[vs[gap]])]


def gap_edge_indices(
    owner: np.ndarray,
    matching: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    scores: np.ndarray,
    matched_score: np.ndarray,
) -> np.ndarray:
    """Indices of gap-graph edges: cross-PE edges whose score exceeds the
    score of whatever the local phase matched at both endpoints."""
    cross = owner[us] != owner[vs]
    beats_u = scores > matched_score[us]
    beats_v = scores > matched_score[vs]
    return np.nonzero(cross & beats_u & beats_v)[0]


def locally_dominant_matching(
    us: np.ndarray,
    vs: np.ndarray,
    scores: np.ndarray,
    n: int,
) -> List[Tuple[int, int]]:
    """Manne–Bisseling: iteratively match edges that are the best-scored
    remaining edge at *both* endpoints.

    The result is canonical (independent of processing order) because
    dominance is defined under the strict total order (score, −edge-id).
    """
    alive = np.ones(len(us), dtype=bool)
    taken = np.zeros(n, dtype=bool)
    # strict total order: higher score wins, ties by lower edge id
    rank = np.lexsort((np.arange(len(us)), -scores))
    order_pos = np.empty(len(us), dtype=np.int64)
    order_pos[rank] = np.arange(len(us))
    pairs: List[Tuple[int, int]] = []
    while True:
        idx = np.nonzero(alive)[0]
        if len(idx) == 0:
            break
        # best remaining edge per endpoint
        best: Dict[int, int] = {}
        for i in idx:
            for x in (int(us[i]), int(vs[i])):
                j = best.get(x)
                if j is None or order_pos[i] < order_pos[j]:
                    best[x] = int(i)
        dominant = [
            i for i in idx
            if best[int(us[i])] == i and best[int(vs[i])] == i
        ]
        if not dominant:
            break
        for i in dominant:
            u, v = int(us[i]), int(vs[i])
            pairs.append((u, v))
            taken[u] = taken[v] = True
        alive &= ~(taken[us] | taken[vs])
    return pairs


def _matched_scores(
    n: int, matching: np.ndarray, us: np.ndarray, vs: np.ndarray,
    scores: np.ndarray,
) -> np.ndarray:
    """Per-node score of its matched edge (−inf when unmatched)."""
    out = np.full(n, -np.inf)
    sel = matching[us] == vs
    out[us[sel]] = scores[sel]
    out[vs[sel]] = scores[sel]
    return out


def parallel_matching(
    g: Graph,
    owner: np.ndarray,
    p: int,
    algorithm: str = "gpa",
    rating: str = "expansion_star2",
    seed: int = 0,
) -> np.ndarray:
    """Sequential simulation of the two-phase parallel matching."""
    owner = np.asarray(owner, dtype=np.int64)
    matching = empty_matching(g.n)
    us, vs, ws, scores = rate_edges(g, rating)

    # -- phase 1: local sequential matching per PE -----------------------
    for r in range(p):
        rng = np.random.default_rng((seed, r))
        _apply_pairs(matching, _local_matching(
            g, np.nonzero(owner == r)[0], algorithm, rating, rng))

    # -- phase 2: locally-dominant matching on the gap graph -------------
    mscore = _matched_scores(g.n, matching, us, vs, scores)
    gap = gap_edge_indices(owner, matching, us, vs, scores, mscore)
    gap = _drop_fixed_endpoints(g, us, vs, gap)
    for u, v in locally_dominant_matching(us[gap], vs[gap], scores[gap], g.n):
        for x in (u, v):  # free the local partners the gap edge displaces
            old = int(matching[x])
            if old != x:
                matching[old] = old
        matching[u] = v
        matching[v] = u
    return matching


def parallel_matching_spmd(
    comm: Comm,
    g: Graph,
    owner: np.ndarray,
    algorithm: str = "gpa",
    rating: str = "expansion_star2",
    seed: int = 0,
) -> np.ndarray:
    """SPMD version: PE ``comm.rank`` matches its own partition, then the
    PEs cooperatively resolve the gap graph round by round.

    Every PE returns the complete global matching (the coarsening driver
    needs it everywhere anyway, mirroring the allgather the C++ code
    performs before contraction).
    """
    owner = np.asarray(owner, dtype=np.int64)
    rank = comm.rank
    rng = comm.derive_rng(seed)

    # -- phase 1: local matching, then exchange the matched pairs --------
    my_nodes = np.nonzero(owner == rank)[0]
    my_pairs = _local_matching(g, my_nodes, algorithm, rating, rng)
    comm.compute(len(my_nodes))
    matching = empty_matching(g.n)
    _apply_pairs(matching, np.concatenate(comm.allgather(my_pairs)))

    # -- phase 2: distributed locally-dominant rounds ---------------------
    us, vs, ws, scores = rate_edges(g, rating)
    mscore = _matched_scores(g.n, matching, us, vs, scores)
    gap = gap_edge_indices(owner, matching, us, vs, scores, mscore)
    gap = _drop_fixed_endpoints(g, us, vs, gap)
    gus, gvs, gsc = us[gap], vs[gap], scores[gap]
    order_rank = np.lexsort((np.arange(len(gap)), -gsc))
    order_pos = np.empty(len(gap), dtype=np.int64)
    order_pos[order_rank] = np.arange(len(gap))
    alive = np.ones(len(gap), dtype=bool)
    # gap edges cross PEs, so at most one endpoint of each is owned here
    mine_u = owner[gus] == rank
    touches_me = mine_u | (owner[gvs] == rank)
    my_end = np.where(mine_u, gus, gvs)
    partner_pe = owner[np.where(mine_u, gvs, gus)]

    while True:
        remaining = comm.allreduce(int(alive.sum()))
        if remaining == 0:
            break
        # each PE proposes, for every owned endpoint, its best alive edge:
        # the first of the endpoint's run when sorted by (endpoint, order)
        edges = np.nonzero(alive & touches_me)[0]
        edges = edges[np.lexsort((order_pos[edges], my_end[edges]))]
        _, first = np.unique(my_end[edges], return_index=True)
        my_proposed = edges[first]
        # the partner endpoint's owner receives the proposal
        dest = partner_pe[my_proposed]
        proposals = [my_proposed[dest == d] for d in range(comm.size)]
        comm.compute(int(alive.sum()))
        incoming = comm.alltoall(proposals)

        # an edge proposed from *both* sides is locally dominant: I
        # proposed it for my endpoint and the partner PE proposed it too
        newly = np.intersect1d(np.concatenate(incoming), my_proposed)
        # every PE sees the same sorted dominant set after sharing
        newly = comm.allreduce(newly, op=np.union1d)
        if len(newly) == 0:
            # no progress is impossible while edges remain alive; guard
            # against it anyway to fail loudly rather than loop forever
            raise RuntimeError("gap matching stalled")
        # ascending edge order makes the displacements canonical
        for u, v in zip(gus[newly].tolist(), gvs[newly].tolist()):
            for x in (u, v):
                old = int(matching[x])
                if old != x:
                    matching[old] = old
            matching[u] = v
            matching[v] = u
        taken = np.zeros(g.n, dtype=bool)
        taken[gus[newly]] = True
        taken[gvs[newly]] = True
        alive &= ~(taken[gus] | taken[gvs])
    return matching

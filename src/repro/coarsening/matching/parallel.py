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
  runs on any execution engine): each PE matches its own part and the
  PEs allgather the matched pairs as one ``(P, 2)`` int64 array, the
  flat integer buffer an MPI code would send.

Both run the same gap phase.  After the allgather every PE holds the
whole matching, and the locally-dominant matching is canonical under a
global total order on edges (score, then edge id), so each PE computes
the gap rounds itself instead of exchanging proposals; the sim engine's
clock is still charged the rounds of the exchanged protocol (per round a
``remaining`` allreduce, an alltoall of int64 edge-id proposals and an
allreduce of the dominant set).  Both entry points produce identical
matchings for identical seeds.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

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




def _dominant_rounds(
    us: np.ndarray,
    vs: np.ndarray,
    scores: np.ndarray,
    n: int,
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The Manne–Bisseling rounds, one tuple per round: the number of
    alive edges, every endpoint of an alive edge with the best alive
    edge there (the proposal that endpoint makes), and the dominant
    edges — best at both endpoints — in ascending edge order."""
    m = len(us)
    # strict total order: higher score wins, ties by lower edge id
    rank = np.lexsort((np.arange(m), -scores))
    order_pos = np.empty(m, dtype=np.int64)
    order_pos[rank] = np.arange(m)
    alive = np.ones(m, dtype=bool)
    taken = np.zeros(n, dtype=bool)
    best_at = np.empty(n, dtype=np.int64)
    while True:
        idx = np.nonzero(alive)[0]
        if len(idx) == 0:
            return
        # best alive edge per endpoint: the first of the endpoint's run
        # when both endpoint lists are sorted by (endpoint, order)
        ends = np.concatenate((us[idx], vs[idx]))
        cand = np.concatenate((idx, idx))
        srt = np.lexsort((order_pos[cand], ends))
        ends, cand = ends[srt], cand[srt]
        first = np.ones(len(ends), dtype=bool)
        first[1:] = ends[1:] != ends[:-1]
        ends, cand = ends[first], cand[first]
        best_at[ends] = cand
        dominant = idx[(best_at[us[idx]] == idx) & (best_at[vs[idx]] == idx)]
        yield len(idx), ends, cand, dominant
        if len(dominant) == 0:
            return
        taken[us[dominant]] = True
        taken[vs[dominant]] = True
        alive &= ~(taken[us] | taken[vs])


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
    Pairs are listed round by round, in ascending edge order within a
    round.
    """
    pairs: List[Tuple[int, int]] = []
    for _, _, _, dominant in _dominant_rounds(us, vs, scores, n):
        pairs.extend(zip(us[dominant].tolist(), vs[dominant].tolist()))
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


def _modelled_rounds(
    rounds: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    owner: np.ndarray, gus: np.ndarray, gvs: np.ndarray, rank: int, p: int,
) -> Iterator[Tuple[float, int, int]]:
    """``(work, nbytes, factor)`` of PE ``rank``'s collectives in the
    exchanged gap protocol: per round the ``remaining`` allreduce, the
    alltoall of its endpoints' proposals (int64 edge ids, one array per
    destination PE) and the allreduce of the dominant edges it touches;
    then the final ``remaining`` allreduce."""
    item = np.dtype(np.int64).itemsize
    for n_alive, ends, cand, dominant in rounds:
        yield 0.0, item, 1
        mine = owner[ends] == rank
        e = cand[mine]
        other = np.where(gus[e] == ends[mine], gvs[e], gus[e])
        per_dest = np.bincount(owner[other], minlength=p)
        yield float(n_alive), item * int(per_dest.max()), 2
        touched = ((owner[gus[dominant]] == rank)
                   | (owner[gvs[dominant]] == rank))
        yield 0.0, item * int(touched.sum()), 1
    yield 0.0, item, 1


def _gap_phase(
    g: Graph, owner: np.ndarray, matching: np.ndarray, rating: str,
    comm: Optional[Comm] = None,
) -> None:
    """Phase 2, in place on ``matching``: the locally-dominant matching
    of the gap graph, each gap edge displacing the local partners of its
    endpoints (round by round, ascending edge order, so the result is
    canonical).  Its inputs are global, so every PE of an SPMD program
    computes the same matching alone; pass the PE's ``comm`` to charge
    the rounds the exchanged protocol would run to its cost clock."""
    us, vs, _, scores = rate_edges(g, rating)
    mscore = _matched_scores(g.n, matching, us, vs, scores)
    gap = gap_edge_indices(owner, matching, us, vs, scores, mscore)
    gap = _drop_fixed_endpoints(g, us, vs, gap)
    gus, gvs = us[gap], vs[gap]
    rounds = list(_dominant_rounds(gus, gvs, scores[gap], g.n))
    for _, _, _, dominant in rounds:
        for u, v in zip(gus[dominant].tolist(), gvs[dominant].tolist()):
            for x in (u, v):  # free the local partners the edge displaces
                old = int(matching[x])
                if old != x:
                    matching[old] = old
            matching[u] = v
            matching[v] = u
    if comm is not None:
        comm.model_collectives(lambda: _modelled_rounds(
            rounds, owner, gus, gvs, comm.rank, comm.size))


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

    # -- phase 1: local sequential matching per PE -----------------------
    for r in range(p):
        rng = np.random.default_rng((seed, r))
        _apply_pairs(matching, _local_matching(
            g, np.nonzero(owner == r)[0], algorithm, rating, rng))

    # -- phase 2: locally-dominant matching on the gap graph -------------
    _gap_phase(g, owner, matching, rating)
    return matching


def parallel_matching_spmd(
    comm: Comm,
    g: Graph,
    owner: np.ndarray,
    algorithm: str = "gpa",
    rating: str = "expansion_star2",
    seed: int = 0,
) -> np.ndarray:
    """SPMD version: PE ``comm.rank`` matches its own partition and the
    PEs allgather the matched pairs; then every PE runs the gap phase on
    the now-global matching itself.

    Every PE returns the complete global matching (the coarsening driver
    needs it everywhere anyway, mirroring the allgather the C++ code
    performs before contraction).
    """
    owner = np.asarray(owner, dtype=np.int64)
    rng = comm.derive_rng(seed)

    # -- phase 1: local matching, then exchange the matched pairs --------
    my_nodes = np.nonzero(owner == comm.rank)[0]
    my_pairs = _local_matching(g, my_nodes, algorithm, rating, rng)
    comm.compute(len(my_nodes))
    matching = empty_matching(g.n)
    _apply_pairs(matching, np.concatenate(comm.allgather(my_pairs)))

    # -- phase 2: the gap rounds, replayed on every PE ---------------------
    _gap_phase(g, owner, matching, rating, comm)
    return matching

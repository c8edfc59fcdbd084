"""The Global Path Algorithm (paper Section 3.2; Maue & Sanders [17]).

"Similar to Greedy, GPA scans the edges in order of decreasing weight but
rather than immediately building a matching, it first constructs a
collection of paths and even cycles.  Afterwards, optimal solutions are
computed for each of these paths and cycles using dynamic programming."

Like Greedy, GPA is a ½-approximation in the worst case, but empirically
produces considerably better matchings — Table 3 shows GPA beating SHEM
by ~2.5 % and Greedy by far more in final partition quality.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ...graph.csr import Graph
from .base import sort_edges_desc

__all__ = ["gpa_matching", "max_weight_path_matching"]


def max_weight_path_matching(weights: List[float]) -> Tuple[float, List[int]]:
    """Optimal matching on a path whose consecutive edges have ``weights``.

    Classic DP: ``M[i] = max(M[i-1], M[i-2] + w[i])``.  Returns the total
    weight and the selected edge indices.
    """
    L = len(weights)
    if L == 0:
        return 0.0, []
    best = [0.0] * (L + 1)
    take = [False] * (L + 1)
    best[1] = weights[0]
    take[1] = True
    for i in range(2, L + 1):
        skip = best[i - 1]
        use = best[i - 2] + weights[i - 1]
        if use > skip:
            best[i], take[i] = use, True
        else:
            best[i], take[i] = skip, False
    sel: List[int] = []
    i = L
    while i >= 1:
        if take[i]:
            sel.append(i - 1)
            i -= 2
        else:
            i -= 1
    sel.reverse()
    return best[L], sel


def _cycle_matching(weights: List[float]) -> Tuple[float, List[int]]:
    """Optimal matching on an (even) cycle with edge ``weights``.

    Either edge 0 is excluded (a plain path DP over 1..L−1) or edge 0 is
    taken (then its neighbours 1 and L−1 are excluded, path DP over
    2..L−2).
    """
    L = len(weights)
    if L < 3:
        raise ValueError("a cycle has at least 3 edges")
    w_without0, sel0 = max_weight_path_matching(weights[1:])
    w_with0, sel1 = max_weight_path_matching(weights[2 : L - 1])
    w_with0 += weights[0]
    if w_with0 > w_without0:
        return w_with0, [0] + [i + 2 for i in sel1]
    return w_without0, [i + 1 for i in sel0]


def gpa_matching(
    g: Graph,
    scores: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    forbidden: Optional[np.ndarray] = None,
) -> np.ndarray:
    """GPA matching over edges scored by ``scores``.

    Nodes flagged in the boolean ``forbidden`` mask never enter the path
    collection, so they are guaranteed to stay unmatched.
    """
    n = g.n
    if forbidden is not None:
        keep = ~(forbidden[us] | forbidden[vs])
        us, vs, scores = us[keep], vs[keep], scores[keep]
    order = sort_edges_desc(us, vs, scores, rng)

    # -- phase 1: grow a collection of paths and even cycles ------------
    # every node has at most two collected edges: the first goes to
    # slot 1, the second to slot 2.  Paths only ever join at their
    # endpoints, so a path is tracked at its two ends alone: ``end[x]``
    # is the other endpoint of x's path and ``length[x]`` its edge count
    # (valid while x has degree < 2).  A closed cycle needs no flag: its
    # nodes all have degree 2 and are skipped.
    deg = [0] * n
    nb1, w1 = [-1] * n, [0.0] * n
    nb2, w2 = [-1] * n, [0.0] * n
    end = list(range(n))
    length = [0] * n

    for u, v, w in zip(us[order].tolist(), vs[order].tolist(),
                       np.asarray(scores, dtype=np.float64)[order].tolist()):
        du, dv = deg[u], deg[v]
        if du >= 2 or dv >= 2:
            continue
        if end[u] == v:
            # u, v are the two endpoints of one path; close it into a
            # cycle only when the cycle length would be even
            if length[u] % 2 == 0:
                continue
        else:
            eu, ev = end[u], end[v]
            end[eu], end[ev] = ev, eu
            length[eu] = length[ev] = length[u] + length[v] + 1
        if du:
            nb2[u], w2[u] = v, w
        else:
            nb1[u], w1[u] = v, w
        if dv:
            nb2[v], w2[v] = u, w
        else:
            nb1[v], w1[v] = u, w
        deg[u] = du + 1
        deg[v] = dv + 1

    def walk(start: int) -> Tuple[List[int], List[float]]:
        """Nodes and edge weights along the path or cycle from ``start``
        (a path endpoint, or any node of a cycle)."""
        nodes, weights = [start], []
        prev, cur = -1, start
        while True:
            if nb1[cur] != prev:
                nxt, w = nb1[cur], w1[cur]
            elif deg[cur] == 2:
                nxt, w = nb2[cur], w2[cur]
            else:
                return nodes, weights   # the path's other endpoint
            weights.append(w)
            if nxt == start:
                return nodes, weights   # the cycle closed
            nodes.append(nxt)
            prev, cur = cur, nxt

    # -- phase 2: optimal matching on each path / cycle by DP -----------
    matching = list(range(n))  # unmatched nodes are their own partner
    visited = [False] * n

    # paths, walked from an endpoint (degree 1; a cycle has none)
    for start in range(n):
        if deg[start] != 1 or visited[start]:
            continue
        nodes, weights = walk(start)
        for x in nodes:
            visited[x] = True
        for ei in max_weight_path_matching(weights)[1]:
            a, b = nodes[ei], nodes[ei + 1]
            matching[a] = b
            matching[b] = a

    # cycles: the degree-2 nodes no path walk reached
    for start in range(n):
        if deg[start] != 2 or visited[start]:
            continue
        nodes, weights = walk(start)
        for x in nodes:
            visited[x] = True
        L = len(nodes)
        for ei in _cycle_matching(weights)[1]:
            a, b = nodes[ei], nodes[(ei + 1) % L]
            matching[a] = b
            matching[b] = a
    return np.array(matching, dtype=np.int64)

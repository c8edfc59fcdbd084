"""Static CSR (adjacency-array / forward-star) graph representation.

This is the central data structure of the partitioner.  The paper (Section
5.2) uses a static adjacency array ("forward-star") representation per PE;
we use the same layout globally: ``xadj``/``adjncy``/``adjwgt`` arrays in
the METIS convention, plus a node-weight array ``vwgt`` and optional
geometric ``coords``.

The structure is immutable by convention: all algorithms that change the
graph (contraction, subgraph extraction) build a *new* :class:`Graph`.
Edges are undirected and stored twice (once per endpoint); ``m`` counts
undirected edges, so ``len(adjncy) == 2 * m``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph"]


class Graph:
    """An undirected weighted graph in CSR form.

    Parameters
    ----------
    xadj:
        ``int64`` array of length ``n + 1``; the adjacency list of node
        ``v`` occupies ``adjncy[xadj[v]:xadj[v+1]]``.
    adjncy:
        ``int64`` array of neighbour ids, length ``2 * m``.
    adjwgt:
        ``float64`` edge weights aligned with ``adjncy``.  Both copies of
        an undirected edge must carry the same weight.
    vwgt:
        Node weights: a ``float64`` array of length ``n`` (the classic
        single-constraint case) or an ``(n, c)`` matrix of ``c`` weight
        vectors per node (multi-constraint partitioning, e.g. memory +
        compute).  ``vwgt`` always exposes the first (dominant) dimension
        as a contiguous 1-D array; the full matrix lives in ``vwgts``.
    coords:
        Optional ``(n, d)`` float array of geometric coordinates, used by
        the geometric prepartitioner (paper Section 3.3).
    validate:
        When true (default) cheap structural invariants are checked at
        construction time.  Set to false in hot paths that construct
        graphs from already-validated arrays.
    vwgts:
        Optional explicit ``(n, c)`` node-weight matrix; takes precedence
        over ``vwgt`` when given.
    fixed:
        Optional ``int64`` array of length ``n``: the *fixed-vertex* mask.
        ``fixed[v] == -1`` means free; ``fixed[v] == b >= 0`` pins ``v``
        to block ``b`` — matching never contracts it into a different
        target and no refinement move may relabel it.
    """

    __slots__ = ("xadj", "adjncy", "adjwgt", "vwgt", "vwgts", "fixed",
                 "coords", "_out_cache", "_sig_cache", "_sig_memo",
                 "_sig_hashes")

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        adjwgt: np.ndarray,
        vwgt: np.ndarray,
        coords: Optional[np.ndarray] = None,
        validate: bool = True,
        vwgts: Optional[np.ndarray] = None,
        fixed: Optional[np.ndarray] = None,
    ) -> None:
        self.xadj = np.ascontiguousarray(xadj, dtype=np.int64)
        self.adjncy = np.ascontiguousarray(adjncy, dtype=np.int64)
        self.adjwgt = np.ascontiguousarray(adjwgt, dtype=np.float64)
        w = np.asarray(vwgts if vwgts is not None else vwgt,
                       dtype=np.float64)
        if w.ndim == 1 or (w.ndim == 2 and w.shape[1] == 1):
            # single constraint: vwgt is the storage, vwgts a (n, 1) view
            self.vwgt = np.ascontiguousarray(w.reshape(-1))
            self.vwgts = self.vwgt.reshape(-1, 1)
        elif w.ndim == 2:
            self.vwgts = np.ascontiguousarray(w)
            self.vwgt = np.ascontiguousarray(self.vwgts[:, 0])
        else:
            raise ValueError("vwgt must be a 1-D vector or an (n, c) matrix")
        self.fixed = (None if fixed is None
                      else np.ascontiguousarray(fixed, dtype=np.int64))
        self.coords = None if coords is None else np.asarray(coords, dtype=np.float64)
        self._out_cache: Optional[np.ndarray] = None
        self._sig_cache: Optional[str] = None
        self._sig_memo: Optional[str] = None
        self._sig_hashes: int = 0  # rehash count (tests assert O(1) reuse)
        if validate:
            self._check_structure()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.xadj) - 1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.adjncy) // 2

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees."""
        return np.diff(self.xadj)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of ``v`` (a CSR view; do not mutate)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def incident_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors` (a view)."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def node_weight(self, v: int) -> float:
        return float(self.vwgt[v])

    @property
    def n_constraints(self) -> int:
        """Number of balance-constraint dimensions ``c`` (1 = classic)."""
        return self.vwgts.shape[1]

    def total_node_weight(self) -> float:
        """``c(V)`` — the sum of all node weights."""
        return float(self.vwgt.sum())

    def total_node_weights(self) -> np.ndarray:
        """Per-dimension total node weight, shape ``(c,)``."""
        return self.vwgts.sum(axis=0)

    def max_node_weights(self) -> np.ndarray:
        """Per-dimension maximum node weight, shape ``(c,)``."""
        if self.n == 0:
            return np.zeros(self.n_constraints)
        return self.vwgts.max(axis=0)

    def fixed_mask(self) -> np.ndarray:
        """Boolean mask of fixed vertices (all-false when none are)."""
        if self.fixed is None:
            return np.zeros(self.n, dtype=bool)
        return self.fixed >= 0

    def total_edge_weight(self) -> float:
        """``ω(E)`` — the sum of all (undirected) edge weights."""
        return float(self.adjwgt.sum()) / 2.0

    def weighted_degrees(self) -> np.ndarray:
        """``Out(v) = Σ_{x∈Γ(v)} ω({v,x})`` for all nodes (paper §3.1).

        Cached because edge ratings evaluate it repeatedly.
        """
        if self._out_cache is None:
            self._out_cache = np.bincount(
                self.directed_sources(), weights=self.adjwgt, minlength=self.n
            )
        return self._out_cache

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        nbrs = self.neighbors(u)
        hits = np.nonzero(nbrs == v)[0]
        if len(hits) == 0:
            raise KeyError(f"no edge {{{u}, {v}}}")
        return float(self.incident_weights(u)[hits[0]])

    def max_node_weight(self) -> float:
        return float(self.vwgt.max()) if self.n else 0.0

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        for u in range(self.n):
            lo, hi = self.xadj[u], self.xadj[u + 1]
            for idx in range(lo, hi):
                v = int(self.adjncy[idx])
                if u < v:
                    yield u, v, float(self.adjwgt[idx])

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised edge list ``(us, vs, ws)`` with ``us < vs``.

        Much faster than :meth:`edges` for whole-graph scans (matching,
        ratings) — used in all hot paths.
        """
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        keep = src < self.adjncy
        return src[keep], self.adjncy[keep], self.adjwgt[keep]

    def directed_sources(self) -> np.ndarray:
        """Source node of every directed arc, aligned with ``adjncy``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())

    def row_arcs(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Arc indices of the adjacency rows of ``nodes``, concatenated in
        the order given, plus each row's length.

        Lets a caller touch only the arcs of a node subset (a frontier,
        a block pair, a band) instead of masking all ``2m`` arcs.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.xadj[nodes]
        counts = self.xadj[nodes + 1] - starts
        # position of each output slot within its node's run, then shift
        # every run to its CSR slice
        run_starts = np.cumsum(counts) - counts
        idx = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
            starts - run_starts, counts
        )
        return idx, counts

    def gather_neighbors(self, nodes: np.ndarray) -> np.ndarray:
        """Concatenated adjacency lists of ``nodes``, in one gather.

        Equivalent to ``np.concatenate([self.neighbors(v) for v in
        nodes])`` but without the per-node Python loop — the workhorse of
        the vectorised frontier expansion in BFS kernels.  Duplicates in
        ``nodes`` yield duplicated neighbour runs.
        """
        return self.adjncy[self.row_arcs(nodes)[0]]

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def bfs_levels(self, sources: Sequence[int], max_depth: Optional[int] = None) -> np.ndarray:
        """Breadth-first levels from ``sources``.

        Returns an ``int64`` array of length ``n`` holding the BFS depth of
        each node, or ``-1`` for unreached nodes.  ``max_depth`` bounds the
        search (used by the boundary-band extraction of Section 5.2).
        """
        level = np.full(self.n, -1, dtype=np.int64)
        frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
        if len(frontier) == 0:
            return level
        level[frontier] = 0
        depth = 0
        while len(frontier) and (max_depth is None or depth < max_depth):
            depth += 1
            # gather all neighbours of the frontier, keep the unvisited
            take = self.gather_neighbors(frontier)
            if len(take) == 0:
                break
            nxt = np.unique(take)
            nxt = nxt[level[nxt] == -1]
            if len(nxt) == 0:
                break
            level[nxt] = depth
            frontier = nxt
        return level

    def connected_components(self) -> np.ndarray:
        """Label nodes by connected component (``int64`` array)."""
        comp = np.full(self.n, -1, dtype=np.int64)
        label = 0
        for start in range(self.n):
            if comp[start] != -1:
                continue
            comp[start] = label
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self.neighbors(u):
                    if comp[v] == -1:
                        comp[v] = label
                        stack.append(int(v))
            label += 1
        return comp

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return bool((self.bfs_levels([0]) >= 0).all())

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _check_structure(self) -> None:
        if len(self.xadj) < 1:
            raise ValueError("xadj must have length n + 1 >= 1")
        if self.xadj[0] != 0 or self.xadj[-1] != len(self.adjncy):
            raise ValueError("xadj must start at 0 and end at len(adjncy)")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be non-decreasing")
        if len(self.adjwgt) != len(self.adjncy):
            raise ValueError("adjwgt must align with adjncy")
        if len(self.vwgt) != self.n:
            raise ValueError("vwgt must have length n")
        if len(self.adjncy) and (
            self.adjncy.min() < 0 or self.adjncy.max() >= self.n
        ):
            raise ValueError("adjncy entries out of range")
        if len(self.adjncy) % 2 != 0:
            raise ValueError("directed arc count must be even (undirected graph)")
        if self.coords is not None and len(self.coords) != self.n:
            raise ValueError("coords must have one row per node")
        if np.any(self.adjwgt <= 0):
            raise ValueError("edge weights must be positive (paper: ω: E → R>0)")
        if len(self.vwgts) != self.n:
            raise ValueError(
                f"vwgts must have one row per node: got {self.vwgts.shape}"
                f" for n={self.n}"
            )
        if np.any(self.vwgts < 0):
            v, d = (int(x) for x in np.argwhere(self.vwgts < 0)[0])
            raise ValueError(
                f"node weights must be non-negative (paper: c: V → R≥0): "
                f"constraint dimension {d} of vertex {v} is "
                f"{self.vwgts[v, d]:g}"
            )
        if self.fixed is not None:
            if len(self.fixed) != self.n:
                raise ValueError(
                    f"fixed must have length n={self.n}, got {len(self.fixed)}"
                )
            if len(self.fixed) and self.fixed.min() < -1:
                v = int(np.argmin(self.fixed))
                raise ValueError(
                    f"fixed[{v}] = {self.fixed[v]} is invalid: use -1 for "
                    f"free vertices or a block id >= 0"
                )

    def check_symmetry(self) -> None:
        """Expensive full check that every arc has a matching reverse arc
        with equal weight, and that there are no self-loops or parallel
        edges.  Used by tests and :mod:`repro.graph.validate`.
        """
        src = self.directed_sources()
        if np.any(src == self.adjncy):
            raise ValueError("self-loop found")
        order = np.lexsort((self.adjncy, src))
        fwd = np.stack([src[order], self.adjncy[order]], axis=1)
        if len(fwd) and np.any((np.diff(fwd[:, 0]) == 0) & (np.diff(fwd[:, 1]) == 0)):
            raise ValueError("parallel edge found")
        rorder = np.lexsort((src, self.adjncy))
        rev = np.stack([self.adjncy[rorder], src[rorder]], axis=1)
        if not np.array_equal(fwd, rev):
            raise ValueError("adjacency is not symmetric")
        if not np.allclose(self.adjwgt[order], self.adjwgt[rorder]):
            raise ValueError("edge weights are not symmetric")

    # ------------------------------------------------------------------
    # content identity
    # ------------------------------------------------------------------
    def compute_signature(self) -> str:
        """Content hash of the CSR arrays (structure + weights + coords),
        16 hex digits.  Always recomputed from the current bytes — never
        served from a cache — so the value reflects any in-place
        mutation of the arrays."""
        import hashlib

        h = hashlib.sha256()
        h.update(f"n={self.n};m={self.m};".encode("ascii"))
        for arr in (self.xadj, self.adjncy, self.adjwgt, self.vwgt):
            h.update(np.ascontiguousarray(arr).tobytes())
        if self.coords is not None:
            h.update(np.ascontiguousarray(self.coords).tobytes())
        # extra constraint dimensions and the fixed-vertex mask are hashed
        # only when present, so classic c=1/no-fixed graphs keep their
        # pre-refactor signatures (checkpoint identity depends on this)
        if self.n_constraints > 1:
            h.update(b"vwgts;")
            h.update(np.ascontiguousarray(self.vwgts).tobytes())
        if self.fixed is not None:
            h.update(b"fixed;")
            h.update(np.ascontiguousarray(self.fixed).tobytes())
        self._sig_hashes += 1
        return h.hexdigest()[:16]

    def signature(self) -> str:
        """Content signature, recorded for staleness detection.

        Every call rehashes the current bytes (so in-place mutation can
        never yield a stale value) and records the digest; the recorded
        value lets ``validate_graph`` / :meth:`signature_is_stale` detect
        that a graph was mutated *after* it was signed — the scenario
        where checkpoint identity or cache keys computed from the old
        signature would silently belong to a different graph.
        """
        fresh = self.compute_signature()
        self._sig_cache = fresh
        self._sig_memo = fresh
        return fresh

    def cached_signature(self) -> str:
        """Memoized content signature — the cache-key fast path.

        The first call hashes the CSR arrays (via :meth:`signature`);
        repeated calls return the memo without rehashing, so looking up
        the same multi-MB graph in a result cache is O(1) after the
        first request.  The memo is only valid while the arrays are not
        mutated in place: callers that mutate a graph they previously
        signed must call :meth:`invalidate_signature` (every in-repo
        mutation path — :class:`repro.graph.dynamic.DynamicGraph` —
        rebuilds a fresh :class:`Graph` instead, which starts with an
        empty memo).  Correctness-critical paths (checkpoint identity,
        ``validate_graph``) keep using :meth:`signature` /
        :meth:`compute_signature`, which always rehash.
        """
        if self._sig_memo is None:
            self.signature()
        return self._sig_memo

    def invalidate_signature(self) -> None:
        """Drop the memoized signature after an in-place array mutation
        (the recorded staleness-detection digest is kept — that is the
        evidence ``signature_is_stale`` uses)."""
        self._sig_memo = None

    def signature_is_stale(self) -> bool:
        """True when a signature was cached and the CSR arrays have been
        mutated in place since (the invariant ``validate_graph`` rejects)."""
        return (self._sig_cache is not None
                and self._sig_cache != self.compute_signature())

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        return Graph(
            self.xadj.copy(),
            self.adjncy.copy(),
            self.adjwgt.copy(),
            self.vwgt.copy(),
            None if self.coords is None else self.coords.copy(),
            validate=False,
            vwgts=(None if self.n_constraints == 1 else self.vwgts.copy()),
            fixed=None if self.fixed is None else self.fixed.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m}, c(V)={self.total_node_weight():g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same = (
            np.array_equal(self.xadj, other.xadj)
            and np.array_equal(self.adjncy, other.adjncy)
            and np.allclose(self.adjwgt, other.adjwgt)
            and self.vwgts.shape == other.vwgts.shape
            and np.allclose(self.vwgts, other.vwgts)
        )
        if not same:
            return False
        if (self.fixed is None) != (other.fixed is None):
            return False
        if self.fixed is not None and not np.array_equal(self.fixed,
                                                         other.fixed):
            return False
        if (self.coords is None) != (other.coords is None):
            return False
        if self.coords is not None:
            return bool(np.allclose(self.coords, other.coords))
        return True

    def __hash__(self) -> int:  # graphs are mutable arrays; identity hash
        return id(self)

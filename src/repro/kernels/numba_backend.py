"""Numba-JIT implementations of the hot-path kernels.

The four registered kernels are the reference ``python`` loops compiled
with ``@numba.njit(cache=True, nogil=True)``: same per-arc visit order,
same scalar float accumulation order, so the results are **bit-identical**
to the ``python``/``numpy`` backends (the differential suite enforces
it).

Numba is an *optional* dependency (install extra ``repro[numba]``).
When it is absent this module still registers a complete ``numba``
backend whose kernels delegate to the ``numpy`` implementations, and the
first such call emits a single :class:`RuntimeWarning` — selecting
``kernel_backend="numba"`` degrades gracefully instead of erroring, in
CI containers and laptops alike.

``contract_edges`` is the one kernel whose reference shape (a list of
Python dicts) no-python mode cannot express; the JIT version re-derives
it with counting-sort buckets + per-bucket linear-scan merging, which
reproduces the dict-accumulation order exactly: parallel arcs are summed
in global arc order per coarse edge, and adjacency lists are emitted
sorted ascending by neighbour id.
"""

from __future__ import annotations

import warnings
from typing import Tuple

import numpy as np

from ..graph.csr import Graph
from .python_backend import RATING_NAMES, band_regions
from .registry import get_kernel, register

__all__ = ["NUMBA_AVAILABLE"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:
    njit = None
    NUMBA_AVAILABLE = False

_FALLBACK_WARNED = False


def _warn_fallback_once() -> None:
    """One warning per process, not one per kernel call."""
    global _FALLBACK_WARNED
    if not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(
            "numba is not installed; the 'numba' kernel backend falls back "
            "to the numpy implementations (pip install 'repro[numba]' for "
            "the JIT kernels)",
            RuntimeWarning,
            stacklevel=4,
        )


def _as_i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


if not NUMBA_AVAILABLE:
    # ------------------------------------------------------------------
    # graceful fallback: a complete backend that defers to numpy
    # ------------------------------------------------------------------
    def _fallback(name: str):
        def impl(*args, **kwargs):
            _warn_fallback_once()
            return get_kernel(name, "numpy")(*args, **kwargs)

        impl.__name__ = f"{name}_numba_fallback"
        impl.__doc__ = (f"Fallback for the '{name}' numba kernel: numba is "
                        "unavailable, delegates to the numpy backend.")
        return register(name, "numba")(impl)

    for _name in ("edge_ratings", "contract_edges", "gain_boundary",
                  "band_bfs"):
        _fallback(_name)

else:  # pragma: no cover - exercised only where numba is installed
    # ------------------------------------------------------------------
    # JIT kernels: the python reference loops in no-python mode
    # ------------------------------------------------------------------
    _RATING_CODES = {name: i for i, name in enumerate(RATING_NAMES)}

    @njit(cache=True, nogil=True)
    def _weighted_degrees_jit(n, xadj, adjwgt):
        out = np.zeros(n, dtype=np.float64)
        for v in range(n):
            acc = 0.0
            for idx in range(xadj[v], xadj[v + 1]):
                acc += adjwgt[idx]
            out[v] = acc
        return out

    @njit(cache=True, nogil=True)
    def _edge_ratings_jit(vwgt, deg, us, vs, ws, code):
        out = np.empty(len(ws), dtype=np.float64)
        for i in range(len(ws)):
            w = ws[i]
            if code == 4:  # inner_outer
                denom = deg[us[i]] + deg[vs[i]] - 2.0 * w
                out[i] = w / denom if denom > 0 else np.inf
            else:
                cu, cv = vwgt[us[i]], vwgt[vs[i]]
                if code == 0:      # weight
                    out[i] = w
                elif code == 1:    # expansion
                    out[i] = w / (cu + cv)
                elif code == 2:    # expansion_star
                    out[i] = w / (cu * cv)
                else:              # expansion_star2
                    out[i] = w * w / (cu * cv)
        return out

    @register("edge_ratings", "numba")
    def edge_ratings(g: Graph, us: np.ndarray, vs: np.ndarray,
                     ws: np.ndarray, rating: str) -> np.ndarray:
        """Rate the edge list ``(us, vs, ws)`` in one JIT'd pass."""
        if rating not in RATING_NAMES:
            raise ValueError(
                f"unknown rating {rating!r}; choose from "
                f"{sorted(RATING_NAMES)}"
            )
        code = _RATING_CODES[rating]
        deg = (_weighted_degrees_jit(g.n, _as_i64(g.xadj), _as_f64(g.adjwgt))
               if rating == "inner_outer"
               else np.empty(0, dtype=np.float64))
        return _edge_ratings_jit(_as_f64(g.vwgt), deg, _as_i64(us),
                                 _as_i64(vs), _as_f64(ws), code)

    @njit(cache=True, nogil=True)
    def _contract_edges_jit(n, xadj, adjncy, adjwgt, vwgt, coarse_map,
                            n_coarse):
        cvwgt = np.zeros(n_coarse, dtype=np.float64)
        for v in range(n):
            cvwgt[coarse_map[v]] += vwgt[v]

        # counting-sort the upper-triangle arcs by coarse source; the
        # fill below preserves global arc order within every bucket
        starts = np.zeros(n_coarse + 1, dtype=np.int64)
        for v in range(n):
            cu = coarse_map[v]
            for idx in range(xadj[v], xadj[v + 1]):
                if cu < coarse_map[adjncy[idx]]:
                    starts[cu + 1] += 1
        for i in range(n_coarse):
            starts[i + 1] += starts[i]
        total = starts[n_coarse]
        arc_dst = np.empty(total, dtype=np.int64)
        arc_w = np.empty(total, dtype=np.float64)
        fill = starts[:n_coarse].copy()
        for v in range(n):
            cu = coarse_map[v]
            for idx in range(xadj[v], xadj[v + 1]):
                cv = coarse_map[adjncy[idx]]
                if cu < cv:
                    pos = fill[cu]
                    arc_dst[pos] = cv
                    arc_w[pos] = adjwgt[idx]
                    fill[cu] = pos + 1

        # merge parallel arcs per bucket: linear-scan accumulation in
        # arc order (the dict-accumulation order of the reference), then
        # insertion-sort the merged (dst, w) pairs by dst — the sort
        # moves finished sums, so rounding is untouched
        m_dst = np.empty(total, dtype=np.int64)
        m_w = np.empty(total, dtype=np.float64)
        m_starts = np.zeros(n_coarse + 1, dtype=np.int64)
        pos = 0
        for cu in range(n_coarse):
            base = pos
            for j in range(starts[cu], starts[cu + 1]):
                cv = arc_dst[j]
                found = -1
                for t in range(base, pos):
                    if m_dst[t] == cv:
                        found = t
                        break
                if found >= 0:
                    m_w[found] += arc_w[j]
                else:
                    m_dst[pos] = cv
                    m_w[pos] = arc_w[j]
                    pos += 1
            for t in range(base + 1, pos):
                kd = m_dst[t]
                kw = m_w[t]
                u = t - 1
                while u >= base and m_dst[u] > kd:
                    m_dst[u + 1] = m_dst[u]
                    m_w[u + 1] = m_w[u]
                    u -= 1
                m_dst[u + 1] = kd
                m_w[u + 1] = kw
            m_starts[cu + 1] = pos

        # symmetric CSR, adjacency sorted ascending: smaller-id mirrors
        # first (pass 1), then the upper-triangle neighbours (pass 2)
        cxadj = np.zeros(n_coarse + 1, dtype=np.int64)
        for cu in range(n_coarse):
            for t in range(m_starts[cu], m_starts[cu + 1]):
                cxadj[cu + 1] += 1
                cxadj[m_dst[t] + 1] += 1
        for i in range(n_coarse):
            cxadj[i + 1] += cxadj[i]
        m2 = cxadj[n_coarse]
        cadjncy = np.empty(m2, dtype=np.int64)
        cadjwgt = np.empty(m2, dtype=np.float64)
        fill2 = cxadj[:n_coarse].copy()
        for cu in range(n_coarse):
            for t in range(m_starts[cu], m_starts[cu + 1]):
                b = m_dst[t]
                p2 = fill2[b]
                cadjncy[p2] = cu
                cadjwgt[p2] = m_w[t]
                fill2[b] = p2 + 1
        for cu in range(n_coarse):
            for t in range(m_starts[cu], m_starts[cu + 1]):
                p2 = fill2[cu]
                cadjncy[p2] = m_dst[t]
                cadjwgt[p2] = m_w[t]
                fill2[cu] = p2 + 1
        return cxadj, cadjncy, cadjwgt, cvwgt

    @register("contract_edges", "numba")
    def contract_edges(
        g: Graph, coarse_map: np.ndarray, n_coarse: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Aggregate the contracted CSR in no-python mode."""
        return _contract_edges_jit(
            g.n, _as_i64(g.xadj), _as_i64(g.adjncy), _as_f64(g.adjwgt),
            _as_f64(g.vwgt), _as_i64(coarse_map), int(n_coarse),
        )

    @njit(cache=True, nogil=True)
    def _gain_boundary_jit(n, xadj, adjncy, adjwgt, side):
        gains = np.zeros(n, dtype=np.float64)
        is_boundary = np.zeros(n, dtype=np.bool_)
        n_boundary = 0
        for v in range(n):
            acc = 0.0
            crossing = False
            sv = side[v]
            for idx in range(xadj[v], xadj[v + 1]):
                if side[adjncy[idx]] != sv:
                    acc += adjwgt[idx]
                    crossing = True
                else:
                    acc -= adjwgt[idx]
            gains[v] = acc
            if crossing:
                is_boundary[v] = True
                n_boundary += 1
        boundary = np.empty(n_boundary, dtype=np.int64)
        j = 0
        for v in range(n):
            if is_boundary[v]:
                boundary[j] = v
                j += 1
        return gains, boundary

    @register("gain_boundary", "numba")
    def gain_boundary(g: Graph, side: np.ndarray, scale: float = 1.0,
                      bias=None) -> Tuple[np.ndarray, np.ndarray]:
        """Initial FM gains + boundary nodes in one JIT'd pass.

        ``gain'(v) = scale · gain(v) + bias[v]`` (mapping objective);
        the transform runs after the raw accumulation, matching the
        reference backend's rounding bit for bit.
        """
        gains, boundary = _gain_boundary_jit(
            g.n, _as_i64(g.xadj), _as_i64(g.adjncy),
            _as_f64(g.adjwgt), _as_i64(side))
        if scale != 1.0:
            gains = gains * float(scale)
        if bias is not None:
            gains = gains + np.asarray(bias, dtype=np.float64)
        return gains, boundary

    @njit(cache=True, nogil=True)
    def _band_bfs_jit(n, xadj, adjncy, seeds, region, max_depth):
        level = np.full(n, -1, dtype=np.int64)
        frontier = np.empty(n, dtype=np.int64)
        nxt = np.empty(n, dtype=np.int64)
        f_count = 0
        for i in range(len(seeds)):
            s = seeds[i]
            if level[s] == -1:
                level[s] = 0
                frontier[f_count] = s
                f_count += 1
        depth = 0
        while f_count > 0 and depth + 1 < max_depth:
            depth += 1
            n_count = 0
            for fi in range(f_count):
                v = frontier[fi]
                r = region[v]
                if r < 0:
                    continue
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adjncy[idx]
                    if level[u] == -1 and region[u] == r:
                        level[u] = depth
                        nxt[n_count] = u
                        n_count += 1
            frontier, nxt = nxt, frontier
            f_count = n_count
        return level

    @register("band_bfs", "numba")
    def band_bfs(g: Graph, seeds: np.ndarray, allowed: np.ndarray,
                 max_depth: int) -> np.ndarray:
        """Bounded region-restricted BFS levels in one JIT'd pass."""
        return _band_bfs_jit(
            g.n, _as_i64(g.xadj), _as_i64(g.adjncy), _as_i64(seeds),
            _as_i64(band_regions(allowed, seeds)), int(max_depth),
        )

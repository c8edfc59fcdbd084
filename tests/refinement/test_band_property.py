"""Property tests: ``extract_band`` against a brute-force reference,
and ``extract_bands`` against ``extract_band``.

The reference spells the band out node by node — the pair boundary,
a plain BFS from it inside the (optionally ``within``-clipped) pair, the
one-hop halo, and the induced arcs sorted by (source, target) — on
random small graphs with random block assignments, masks and fixed
vertices.  The batch test checks that extracting the bands of several
block-disjoint pairs in one call gives, pair for pair, exactly the band
of extracting that pair alone.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.refinement.band import extract_band, extract_bands
from tests.conftest import random_graphs


def reference_band(g: Graph, part, a, b, depth, within, fixed):
    """(selected nodes, sorted arcs, side, movable, n_boundary)."""
    nbrs = [[int(u) for u in g.neighbors(v)] for v in range(g.n)]
    in_pair = [int(p) in (a, b) for p in part]
    region = [in_pair[v] and (within is None or bool(within[v]))
              for v in range(g.n)]
    other = {a: b, b: a}
    seeds = [v for v in range(g.n) if in_pair[v]
             and any(part[u] == other[int(part[v])] for u in nbrs[v])
             and (within is None or within[v])]
    dist = {v: 0 for v in seeds}
    queue = deque(seeds)
    while queue:
        v = queue.popleft()
        if dist[v] + 1 >= depth:
            continue
        for u in nbrs[v]:
            if region[u] and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    band = set(dist)
    halo = {u for v in band for u in nbrs[v] if in_pair[u] and u not in band}
    selected = sorted(band | halo)
    sub = {v: i for i, v in enumerate(selected)}
    arcs = sorted(
        (sub[v], sub[u], float(w))
        for v in selected
        for u, w in zip(nbrs[v], g.incident_weights(v))
        if u in sub
    )
    side = [int(part[v] == b) for v in selected]
    movable = [v in band and (fixed is None or fixed[v] < 0)
               for v in selected]
    return selected, arcs, side, movable, len(seeds)


@st.composite
def band_cases(draw, k=4):
    g = draw(random_graphs(max_n=20))
    n = g.n
    part = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n,
                                  max_size=n)), dtype=np.int64)
    within = None
    if draw(st.booleans()):
        within = np.array(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)), dtype=bool)
    fixed = None
    if draw(st.booleans()):
        pins = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        fixed = np.where(np.array(pins, dtype=bool), part, -1)
        g = Graph(g.xadj, g.adjncy, g.adjwgt, g.vwgt, fixed=fixed)
    depth = draw(st.integers(1, 4))
    return g, part, within, fixed, depth


@given(case=band_cases())
@settings(max_examples=150, deadline=None)
def test_extract_band_matches_brute_force(case):
    g, part, within, fixed, depth = case
    band, pair_nodes = extract_band(g, part, 0, 1, depth, within=within)
    selected, arcs, side, movable, n_boundary = reference_band(
        g, part, 0, 1, depth, within, fixed)

    assert band.smap.to_parent.tolist() == selected
    sub = band.graph
    src = np.repeat(np.arange(sub.n), np.diff(sub.xadj))
    assert list(zip(src.tolist(), sub.adjncy.tolist(),
                    sub.adjwgt.tolist())) == arcs
    assert sub.vwgt.tolist() == g.vwgt[selected].tolist()
    assert band.side.tolist() == side
    assert band.movable.tolist() == movable
    assert band.n_boundary == n_boundary
    assert pair_nodes.tolist() == np.nonzero((part == 0) | (part == 1))[0] \
        .tolist()
    to_sub = np.full(g.n, -1)
    to_sub[selected] = np.arange(len(selected))
    assert band.smap.to_sub.tolist() == to_sub.tolist()


@st.composite
def batch_cases(draw):
    """A band case over 6 blocks plus a random list of block-disjoint
    pairs, in random order and orientation."""
    g, part, within, fixed, depth = draw(band_cases(k=6))
    blocks = draw(st.permutations(range(6)))
    n_pairs = draw(st.integers(1, 3))
    pairs = [(blocks[2 * i], blocks[2 * i + 1]) for i in range(n_pairs)]
    return g, part, within, depth, pairs


def band_arrays(band):
    sub = band.graph
    return [sub.xadj, sub.adjncy, sub.adjwgt, sub.vwgt,
            np.zeros(0) if sub.fixed is None else sub.fixed,
            band.smap.to_parent, band.smap.to_sub, band.side, band.movable]


@given(case=batch_cases())
@settings(max_examples=150, deadline=None)
def test_extract_bands_equals_one_pair_extraction(case):
    g, part, within, depth, pairs = case
    bands = extract_bands(g, part, pairs, depth, within=within)
    assert len(bands) == len(pairs)
    for (a, b), band in zip(pairs, bands):
        alone, _ = extract_band(g, part, a, b, depth, within=within)
        for got, want in zip(band_arrays(band), band_arrays(alone)):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        assert band.n_boundary == alone.n_boundary
        assert (band.graph.fixed is None) == (alone.graph.fixed is None)


def test_extract_bands_rejects_overlapping_pairs(grid8):
    part = np.arange(grid8.n) % 4
    with pytest.raises(ValueError, match="block-disjoint"):
        extract_bands(grid8, part, [(0, 1), (1, 2)], 2)
    assert extract_bands(grid8, part, [], 2) == []

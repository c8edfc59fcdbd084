"""Property tests: ``extract_band`` against a brute-force reference,
``extract_bands`` against ``extract_band``, the FM start state against
a brute-force reference, and candidate-mask seeds against a full scan.

The reference spells the band out node by node — the pair boundary,
a plain BFS from it inside the (optionally ``within``-clipped) pair, the
one-hop halo, and the induced arcs sorted by (source, target) — on
random small graphs with random block assignments, masks and fixed
vertices.  The batch test checks that extracting the bands of several
block-disjoint pairs in one call gives, pair for pair, exactly the band
of extracting that pair alone.  The FM-state test checks the halo-free
lists FM reads (node ids, sides, movability, gains over all pair arcs,
start boundary, band-internal adjacency).  The candidate test moves
random nodes, grows the candidate mask from the moves only, and checks
that the bands seeded from it equal the bands of a full boundary scan.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.refinement.band import (
    add_candidates,
    cut_candidates,
    extract_band,
    extract_bands,
)
from tests.conftest import random_graphs


def reference_bfs_band(g: Graph, part, a, b, depth, within):
    """(band node set, pair boundary seeds) by a plain BFS."""
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
    return set(dist), seeds


def reference_band(g: Graph, part, a, b, depth, within, fixed):
    """(selected nodes, sorted arcs, side, movable, n_boundary)."""
    nbrs = [[int(u) for u in g.neighbors(v)] for v in range(g.n)]
    in_pair = [int(p) in (a, b) for p in part]
    band, seeds = reference_bfs_band(g, part, a, b, depth, within)
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


def reference_fm_state(g: Graph, part, a, b, depth, within, fixed):
    """The FM start state of pair (a, b): band node ids, sides,
    movability, gains over all pair arcs, start boundary (local ids),
    band-internal arcs as (local source, local target, 2·w), and the
    pair boundary size."""
    band, seeds = reference_bfs_band(g, part, a, b, depth, within)
    band = sorted(band)
    in_pair = {v for v in range(g.n) if int(part[v]) in (a, b)}
    local = {v: i for i, v in enumerate(band)}
    side, gains, start, arcs = [], [], [], []
    for i, v in enumerate(band):
        rows = sorted(zip(g.neighbors(v).tolist(),
                          g.incident_weights(v).tolist()))
        gain, crossing = 0.0, False
        for u, w in rows:
            if u not in in_pair:
                continue
            if part[u] != part[v]:
                gain += w
                crossing = True
            else:
                gain -= w
            if u in local:
                arcs.append((i, local[u], 2.0 * w))
        side.append(int(part[v] == b))
        gains.append(gain)
        if crossing and (fixed is None or fixed[v] < 0):
            start.append(i)
    movable = [fixed is None or bool(fixed[v] < 0) for v in band]
    return band, side, movable, gains, start, arcs, len(seeds)


def fm_arcs(fm):
    return [(i, j, d) for i in range(len(fm.side))
            for j, d in zip(fm.adjncy[fm.xadj[i]:fm.xadj[i + 1]],
                            fm.delta[fm.xadj[i]:fm.xadj[i + 1]])]


@given(case=batch_cases())
@settings(max_examples=150, deadline=None)
def test_fm_start_state_matches_brute_force(case):
    g, part, within, depth, pairs = case
    bands = extract_bands(g, part, pairs, depth, within=within)
    for (a, b), band in zip(pairs, bands):
        nodes, side, movable, gains, start, arcs, n_boundary = \
            reference_fm_state(g, part, a, b, depth, within, g.fixed)
        fm = band.fm
        assert band.nodes.tolist() == nodes
        assert band.node_side.tolist() == fm.side == side
        assert band.node_movable.tolist() == fm.movable == movable
        assert fm.gains == gains
        assert fm.init == start
        assert fm.vwgt == g.vwgt[nodes].tolist()
        assert fm_arcs(fm) == arcs
        assert band.n_boundary == n_boundary
        # the lazily built band-plus-halo view places every band node
        assert band.smap.to_parent[band.graph_index].tolist() == nodes


@given(case=batch_cases(), moves=st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 5)), max_size=12))
@settings(max_examples=150, deadline=None)
def test_candidate_mask_seeds_equal_full_scan(case, moves):
    g, part, within, depth, pairs = case
    part = part.copy()
    mask = cut_candidates(g, part)
    for v, block in moves:
        if v < g.n:
            part[v] = block
            add_candidates(g, mask, [v])
    src = g.directed_sources()
    cut_nodes = np.unique(src[part[src] != part[g.adjncy]])
    assert mask[cut_nodes].all()
    fast = extract_bands(g, part, pairs, depth, within=within,
                         candidates=mask)
    full = extract_bands(g, part, pairs, depth, within=within)
    for got, want in zip(fast, full):
        assert got.nodes.tolist() == want.nodes.tolist()
        assert got.fm == want.fm
        assert got.n_boundary == want.n_boundary

"""Property-based tests for the fixed-vertex invariant.

Hypothesis generates random connected graphs with a random subset of
vertices pinned to blocks, then asserts the contract every layer must
honour: **no matching, contraction, initial partition, FM pass, or full
pipeline run ever relabels a fixed vertex.**

The full-pipeline property runs on both the sequential driver and the
cluster path (sequential engine); the deterministic engine-equivalence
suite in ``test_constraints.py`` extends the guarantee bit-for-bit to
the sim and process engines.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.coarsening import MATCHERS, contract_matching, coarsen, dispatch
from repro.core import MINIMAL
from repro.core.partitioner import partition_graph
from repro.graph import validate_matching
from repro.graph.csr import Graph
from repro.initial import initial_partition
from repro.refinement.fm import fm_bipartition_refine
from tests.conftest import random_graphs

K = 3


@st.composite
def fixed_graphs(draw, max_n: int = 24, k: int = K):
    """A random connected graph with a random non-empty pin set."""
    g = draw(random_graphs(max_n=max_n, weighted=True, connected=True))
    fixed = np.full(g.n, -1, dtype=np.int64)
    if g.n:
        n_pins = draw(st.integers(1, g.n))
        pins = draw(st.permutations(range(g.n)))[:n_pins]
        for i, v in enumerate(pins):
            fixed[v] = i % k
    return Graph(g.xadj, g.adjncy, g.adjwgt, g.vwgt, fixed=fixed)


class TestMatchingNeverTouchesFixed:
    @pytest.mark.parametrize("algorithm", sorted(MATCHERS))
    @given(g=fixed_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fixed_vertices_stay_unmatched(self, algorithm, g, seed):
        m = dispatch(g, algorithm=algorithm,
                     rng=np.random.default_rng(seed),
                     forbidden=g.fixed >= 0)
        validate_matching(g, m)
        pinned = np.nonzero(g.fixed >= 0)[0]
        assert np.array_equal(m[pinned], pinned)  # all self-matched


class TestContractionPreservesPins:
    @given(g=fixed_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_coarse_graph_carries_every_pin(self, g, seed):
        m = dispatch(g, algorithm="gpa", rng=np.random.default_rng(seed),
                     forbidden=g.fixed >= 0)
        coarse, cmap = contract_matching(g, m)
        assert coarse.fixed is not None
        for v in range(g.n):
            if g.fixed[v] >= 0:
                assert coarse.fixed[cmap[v]] == g.fixed[v]

    @given(g=fixed_graphs(max_n=32))
    @settings(max_examples=15, deadline=None)
    def test_full_hierarchy_preserves_pin_targets(self, g):
        h = coarsen(g, K, seed=0)
        for level in range(len(h.maps)):
            fine, coarse = h.graphs[level], h.graphs[level + 1]
            cmap = h.maps[level]
            pinned = np.nonzero(fine.fixed >= 0)[0]
            assert np.array_equal(coarse.fixed[cmap[pinned]],
                                  fine.fixed[pinned])


class TestInitialPartitionRespectsPins:
    @pytest.mark.parametrize("method",
                             ["recursive_bisection", "kway_growing"])
    @given(g=fixed_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_pins_end_in_their_blocks(self, method, g, seed):
        part = initial_partition(g, K, method=method, seed=seed)
        pinned = np.nonzero(g.fixed >= 0)[0]
        assert np.array_equal(part[pinned], g.fixed[pinned])


class TestFMNeverMovesImmovable:
    @given(g=fixed_graphs(k=2), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fm_honours_movable_mask(self, g, seed):
        rng = np.random.default_rng(seed)
        side = (g.fixed == 1).astype(np.int8)
        free = g.fixed < 0
        side[free] = rng.integers(0, 2, int(free.sum()))
        res = fm_bipartition_refine(g, side, movable=free.copy(),
                                    rng=np.random.default_rng(seed))
        pinned = ~free
        assert np.array_equal(res.side[pinned], side[pinned])


class TestPipelineEndToEnd:
    @pytest.mark.parametrize("execution", ["sequential", "cluster"])
    @given(g=fixed_graphs(max_n=40), seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_partition_graph_respects_pins(self, execution, g, seed):
        assume(g.n >= K)
        res = partition_graph(g, K, config=MINIMAL, seed=seed,
                              execution=execution,
                              engine="sequential" if execution == "cluster"
                              else None)
        pinned = np.nonzero(g.fixed >= 0)[0]
        assert np.array_equal(res.partition.part[pinned], g.fixed[pinned])

"""Tests for the k > P generalisation (paper Section 8 outlook):
blocks multiplexed over fewer virtual PEs, with results identical to the
one-PE-per-block setting."""

import numpy as np
import pytest

from repro.core import MINIMAL, KappaPartitioner, metrics
from repro.generators import delaunay_graph, random_geometric_graph
from repro.graph import complete_graph, cycle_graph
from repro.engine import get_engine
from repro.parallel import distributed_edge_coloring_spmd, verify_edge_coloring
from repro.refinement import pairwise_refinement


def merge_colorings(results):
    merged = {}
    for d in results:
        for e, c in d.items():
            assert merged.setdefault(e, c) == c
        merged.update(d)
    return merged


class TestMultiplexedColoring:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_p_independent_coloring(self, p):
        q = complete_graph(6)
        full = merge_colorings(
            get_engine("sim", 6).run(distributed_edge_coloring_spmd, q,
                                     3).results
        )
        multi = merge_colorings(
            get_engine("sim", p).run(distributed_edge_coloring_spmd, q,
                                     3).results
        )
        assert multi == full
        verify_edge_coloring(q, multi)

    def test_cycle_with_two_pes(self):
        q = cycle_graph(7)
        colors = merge_colorings(
            get_engine("sim", 2).run(distributed_edge_coloring_spmd, q,
                                     1).results
        )
        verify_edge_coloring(q, colors)

    def test_too_many_pes_rejected(self):
        q = cycle_graph(3)
        with pytest.raises(ValueError):
            get_engine("sim", 4).run(distributed_edge_coloring_spmd, q, 0)


class TestMultiplexedRefinement:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_sequential_any_p(self, p):
        g = random_geometric_graph(250, seed=8)
        k = 6
        part0 = np.random.default_rng(1).integers(0, k, g.n)
        seq = pairwise_refinement(g, part0, k, seed=5,
                                  coloring="distributed",
                                  max_global_iterations=2)
        res = get_engine("sim", p).run(
            lambda comm: pairwise_refinement(
                g, part0, k, seed=5, coloring="distributed",
                max_global_iterations=2, comm=comm))
        for r in range(p):
            assert np.array_equal(res.results[r], seq)

    def test_k_less_than_p_rejected(self, delaunay100):
        g = delaunay100
        part0 = np.zeros(g.n, dtype=np.int64)
        with pytest.raises(ValueError):
            get_engine("sim", 4).run(
                lambda comm: pairwise_refinement(
                    g, part0, 2, coloring="distributed", comm=comm))


class TestClusterPipelineWithFewerPEs:
    def test_feasible_and_deterministic(self):
        g = delaunay_graph(300, seed=9)
        cfg = MINIMAL.derive(n_pes=2)
        a = KappaPartitioner(cfg).partition(g, 4, seed=1, execution="cluster")
        b = KappaPartitioner(cfg).partition(g, 4, seed=1, execution="cluster")
        assert np.array_equal(a.partition.part, b.partition.part)
        assert metrics.is_balanced(g, a.partition.part, 4, 0.03)
        assert a.sim_time_s > 0

    def test_quality_similar_to_full_pe_count(self):
        g = delaunay_graph(400, seed=10)
        few = KappaPartitioner(MINIMAL.derive(n_pes=2)).partition(
            g, 4, seed=1, execution="cluster")
        full = KappaPartitioner(MINIMAL).partition(
            g, 4, seed=1, execution="cluster")
        assert few.cut <= 2.0 * full.cut
        assert full.cut <= 2.0 * few.cut

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.generators import delaunay_graph, random_geometric_graph
from repro.graph import from_edge_list, grid2d_graph, path_graph
from repro.initial import (
    INITIAL_PARTITIONERS,
    fiedler_vector,
    grow_bisection,
    initial_partition,
    initial_partition_spmd,
    kway_growing,
    recursive_bisection,
    spectral_bisection,
    spread_seeds,
)
from repro.engine import get_engine
from tests.conftest import random_graphs


class TestGrowing:
    def test_half_split(self):
        g = grid2d_graph(6, 6)
        side = grow_bisection(g, 18.0, np.random.default_rng(1))
        w0 = g.vwgt[side == 0].sum()
        assert 12 <= w0 <= 24  # roughly half

    def test_region_connected_on_connected_graph(self):
        g = grid2d_graph(6, 6)
        side = grow_bisection(g, 18.0, np.random.default_rng(2))
        from repro.graph import induced_subgraph

        sub, _ = induced_subgraph(g, np.nonzero(side == 0)[0])
        assert sub.is_connected()

    def test_disconnected_restarts(self):
        g = from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
        side = grow_bisection(g, 4.0, np.random.default_rng(3))
        assert (side == 0).sum() >= 3

    def test_seed_node_honoured(self):
        g = path_graph(10)
        side = grow_bisection(g, 5.0, np.random.default_rng(0), seed_node=0)
        assert side[0] == 0 and side[9] == 1


class TestSpectral:
    def test_fiedler_separates_two_triangles(self, two_triangles):
        f = fiedler_vector(two_triangles)
        signs = np.sign(f)
        assert len(set(signs[:3])) == 1 and len(set(signs[3:])) == 1
        assert signs[0] != signs[3]

    def test_spectral_bisection_optimal_on_bridge(self, two_triangles):
        side = spectral_bisection(two_triangles)
        part = side.astype(np.int64)
        assert metrics.cut_value(two_triangles, part) == 1.0

    def test_large_graph_lanczos_path(self, delaunay300):
        g = delaunay300
        side = spectral_bisection(g)
        assert 100 <= (side == 0).sum() <= 200

    def test_tiny_graphs(self):
        assert len(spectral_bisection(path_graph(1))) == 1
        assert len(fiedler_vector(path_graph(1))) == 1


class TestRecursiveBisection:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    def test_various_k_feasible(self, k, delaunay400):
        g = delaunay400
        part = recursive_bisection(g, k, epsilon=0.05, seed=1)
        metrics_ok = metrics.is_balanced(g, part, k, 0.05)
        assert metrics_ok
        assert set(np.unique(part)) == set(range(k))

    def test_k1(self, grid8):
        part = recursive_bisection(grid8, 1)
        assert np.all(part == 0)

    def test_invalid_k(self, grid8):
        with pytest.raises(ValueError):
            recursive_bisection(grid8, 0)

    def test_spectral_method(self):
        g = delaunay_graph(200, seed=3)
        part = recursive_bisection(g, 4, seed=1, method="spectral")
        assert metrics.is_balanced(g, part, 4, 0.10)

    def test_unknown_method(self, grid8):
        with pytest.raises(ValueError):
            recursive_bisection(grid8, 2, method="magic")


class TestKwayGrowing:
    def test_seeds_spread(self):
        g = path_graph(20)
        seeds = spread_seeds(g, 3, np.random.default_rng(1))
        assert len(seeds) == 3
        assert len(set(seeds.tolist())) == 3

    def test_seeds_more_than_nodes(self):
        g = path_graph(3)
        seeds = spread_seeds(g, 5, np.random.default_rng(1))
        assert len(seeds) == 5

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_feasible(self, k):
        g = delaunay_graph(300, seed=4)
        part = kway_growing(g, k, epsilon=0.05, seed=1)
        assert metrics.is_balanced(g, part, k, 0.05)
        assert set(np.unique(part)) == set(range(k))

    def test_k1(self, grid8):
        assert np.all(kway_growing(grid8, 1) == 0)

    def test_invalid_k(self, grid8):
        with pytest.raises(ValueError):
            kway_growing(grid8, 0)

    def test_disconnected(self):
        g = from_edge_list(8, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)])
        part = kway_growing(g, 2, epsilon=0.5, seed=1)
        assert set(np.unique(part)) <= {0, 1}


class TestRunner:
    def test_best_of_repeats_no_worse(self):
        g = delaunay_graph(300, seed=5)
        one = initial_partition(g, 4, repeats=1, seed=3)
        ten = initial_partition(g, 4, repeats=10, seed=3)
        assert metrics.cut_value(g, ten) <= metrics.cut_value(g, one)

    def test_unknown_method(self, grid8):
        with pytest.raises(ValueError):
            initial_partition(grid8, 2, method="metis")

    def test_invalid_repeats(self, grid8):
        with pytest.raises(ValueError):
            initial_partition(grid8, 2, repeats=0)

    def test_all_methods_listed_work(self):
        g = delaunay_graph(150, seed=6)
        for method in INITIAL_PARTITIONERS:
            part = initial_partition(g, 3, method=method, repeats=1, seed=2)
            assert metrics.is_balanced(g, part, 3, 0.03)

    def test_spmd_all_pes_agree_and_beats_single(self):
        g = delaunay_graph(250, seed=7)
        res = get_engine("sim", 4).run(initial_partition_spmd, g, 4,
                                       repeats=2, seed=1)
        base = res.results[0]
        assert all(np.array_equal(base, r) for r in res.results)
        # 4 PEs x 2 repeats explores at least as well as 1 x 2
        single = initial_partition(g, 4, repeats=2, seed=1)
        assert metrics.cut_value(g, base) <= metrics.cut_value(g, single) * 1.5

    @given(random_graphs(max_n=30, connected=True), st.integers(2, 4),
           st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_feasible(self, g, k, seed):
        if g.n < k:
            return
        part = initial_partition(g, k, epsilon=0.20, repeats=2, seed=seed)
        w = metrics.block_weights(g, part, k)
        lmax = metrics.lmax(g, k, 0.20)
        # best-effort: at worst a small overshoot on adversarial weights
        assert w.max() <= lmax * 1.5 + g.max_node_weight()

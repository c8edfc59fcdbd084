import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.refinement import (
    QUEUE_STRATEGIES,
    FMSearch,
    cut_between_sides,
    fm_bipartition_refine,
    initial_gains,
    two_way_boundary,
)
from repro.graph import from_edge_list, grid2d_graph, path_graph
from tests.conftest import random_graphs


class TestGains:
    def test_initial_gains(self, two_triangles):
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        gains = initial_gains(two_triangles, side)
        # node 2: one external edge (to 3), two internal -> gain -1
        assert gains[2] == -1.0
        assert gains[0] == -2.0

    def test_gain_meaning(self, weighted_path):
        side = np.array([0, 0, 1, 1], dtype=np.int8)
        gains = initial_gains(weighted_path, side)
        # moving node 1 to side 1: cut goes from 1 to 5 -> gain 1-5 = -4
        assert gains[1] == 1.0 - 5.0

    def test_boundary(self, two_triangles):
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        assert two_way_boundary(two_triangles, side).tolist() == [2, 3]

    def test_cut_between_sides(self, two_triangles):
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        assert cut_between_sides(two_triangles, side) == 1.0


class TestFMBasics:
    def test_improves_bad_bisection(self, two_triangles):
        # start with the bad split {0,1,4} vs {2,3,5}: cut 4
        side = np.array([0, 0, 1, 1, 0, 1], dtype=np.int8)
        res = fm_bipartition_refine(
            two_triangles, side, lmax=4.0, alpha=1.0,
            rng=np.random.default_rng(0),
        )
        assert cut_between_sides(two_triangles, res.side) == 1.0
        assert res.gain == 3.0
        assert res.improved

    def test_already_optimal_no_change(self, two_triangles):
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        res = fm_bipartition_refine(
            two_triangles, side, lmax=4.0, alpha=1.0,
            rng=np.random.default_rng(0),
        )
        assert not res.improved
        assert cut_between_sides(two_triangles, res.side) == 1.0

    def test_respects_lmax(self):
        # a path where collapsing everything to one side is tempting
        g = path_graph(8)
        side = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int8)
        res = fm_bipartition_refine(
            g, side, lmax=5.0, alpha=1.0, rng=np.random.default_rng(1)
        )
        assert max(res.weight_a, res.weight_b) <= 5.0

    def test_weights_consistent(self, grid8):
        rng = np.random.default_rng(2)
        side = rng.integers(0, 2, grid8.n).astype(np.int8)
        res = fm_bipartition_refine(grid8, side, lmax=40.0, alpha=0.5, rng=rng)
        assert np.isclose(res.weight_a, grid8.vwgt[res.side == 0].sum())
        assert np.isclose(res.weight_b, grid8.vwgt[res.side == 1].sum())

    def test_each_node_moved_at_most_once(self, grid8):
        rng = np.random.default_rng(3)
        side = rng.integers(0, 2, grid8.n).astype(np.int8)
        res = fm_bipartition_refine(grid8, side, lmax=40.0, alpha=1.0, rng=rng)
        assert res.moves_tried <= grid8.n

    def test_movable_mask_respected(self, two_triangles):
        side = np.array([0, 0, 1, 1, 0, 1], dtype=np.int8)  # bad split
        movable = np.array([False, False, True, True, True, False])
        res = fm_bipartition_refine(
            two_triangles, side, movable=movable, lmax=4.0, alpha=1.0,
            rng=np.random.default_rng(0),
        )
        assert res.side[0] == 0 and res.side[1] == 0 and res.side[5] == 1

    def test_external_weights_counted(self, two_triangles):
        # pretend each block carries 10 extra weight outside the graph:
        # then lmax=12 blocks every move of a unit node onto side 1
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        res = fm_bipartition_refine(
            two_triangles, side, weight_a=13.0, weight_b=3.0, lmax=12.9,
            alpha=1.0, rng=np.random.default_rng(0),
        )
        # side 0 overloaded: FM may only move 0-ward -> balance improves
        assert res.weight_a <= 13.0

    def test_invalid_side_vector(self, triangle):
        with pytest.raises(ValueError):
            fm_bipartition_refine(triangle, np.array([0, 1, 2]))

    def test_invalid_strategy(self, triangle):
        with pytest.raises(ValueError):
            fm_bipartition_refine(
                triangle, np.zeros(3, dtype=np.int8), queue_selection="bogus"
            )


class TestQueueStrategies:
    @pytest.mark.parametrize("strategy", QUEUE_STRATEGIES)
    def test_all_strategies_valid(self, strategy):
        g = grid2d_graph(6, 6)
        rng = np.random.default_rng(4)
        side = (np.arange(g.n) % 2).astype(np.int8)  # awful striped split
        cut0 = cut_between_sides(g, side)
        res = fm_bipartition_refine(
            g, side, lmax=metrics.lmax(g, 2, 0.03), alpha=1.0,
            queue_selection=strategy, rng=rng,
        )
        assert cut_between_sides(g, res.side) <= cut0
        assert np.isclose(
            cut0 - cut_between_sides(g, res.side), res.gain
        )

    def test_rollback_gain_accounting(self):
        g = grid2d_graph(5, 5)
        rng = np.random.default_rng(5)
        side = rng.integers(0, 2, g.n).astype(np.int8)
        cut0 = cut_between_sides(g, side)
        res = fm_bipartition_refine(
            g, side, lmax=metrics.lmax(g, 2, 0.05), alpha=0.3, rng=rng
        )
        assert np.isclose(cut0 - cut_between_sides(g, res.side), res.gain)
        assert res.moves_applied <= res.moves_tried


class TestFMProperties:
    @given(random_graphs(max_n=20, connected=True), st.integers(0, 2**31 - 1),
           st.sampled_from(QUEUE_STRATEGIES))
    @settings(max_examples=30, deadline=None)
    def test_never_worsens_cut_and_conserves(self, g, seed, strategy):
        rng = np.random.default_rng(seed)
        side = rng.integers(0, 2, g.n).astype(np.int8)
        cut0 = cut_between_sides(g, side)
        imb_limit = metrics.lmax(g, 2, 0.10)
        imb0 = max(0.0, max(g.vwgt[side == 0].sum(),
                            g.vwgt[side == 1].sum()) - imb_limit)
        res = fm_bipartition_refine(
            g, side, lmax=imb_limit, alpha=0.5,
            queue_selection=strategy, rng=rng,
        )
        cut1 = cut_between_sides(g, res.side)
        imb1 = max(0.0, max(res.weight_a, res.weight_b) - imb_limit)
        # lexicographic (imbalance, cut) never worsens
        assert (imb1, cut1) <= (imb0, cut0 + 1e-9)
        assert np.isclose(res.weight_a + res.weight_b, g.total_node_weight())
        assert np.isclose(cut0 - cut1, res.gain)


class TestFMSearchReuse:
    def test_passes_share_the_prepared_view_without_mutating_it(
            self, delaunay300):
        # refine_pair runs two seeded passes on one FMSearch; each pass
        # must equal a fresh search, whatever ran on the view before it
        g = delaunay300
        side = (g.coords[:, 0] > 0.45).astype(np.int8)
        kw = dict(lmax=metrics.lmax(g, 2, 0.03), alpha=0.3)
        search = FMSearch(g, side)
        passes = [search.run(np.random.default_rng(s), **kw)
                  for s in (1, 2, 1)]
        for s, res in zip((1, 2, 1), passes):
            fresh = fm_bipartition_refine(g, side,
                                          rng=np.random.default_rng(s), **kw)
            assert res.side.tolist() == fresh.side.tolist()
            assert (res.gain, res.moves_tried) == (fresh.gain,
                                                   fresh.moves_tried)
        assert passes[0].moves_tried > 0

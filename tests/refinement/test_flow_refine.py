import numpy as np
import pytest

from repro.core import FAST, KappaPartitioner, metrics
from repro.generators import delaunay_graph, random_geometric_graph
from repro.graph import grid2d_graph
from repro.refinement import (
    extract_band,
    flow_cut_for_band,
    pairwise_refinement,
    refine_pair,
)


class TestFlowCutForBand:
    def _bad_split_grid(self):
        """A 6x6 grid split by a jagged, suboptimal border."""
        g = grid2d_graph(6, 6)
        part = (np.arange(36) % 6 >= 3).astype(np.int64)
        # perturb: push two left nodes to the right block
        part[2] = 1
        part[14] = 1
        return g, part

    def test_finds_straight_cut(self):
        g, part = self._bad_split_grid()
        # depth 1: the halo anchors both sides (deeper bands would swallow
        # the whole 6-wide blocks and leave no fixed nodes)
        band, _ = extract_band(g, part, 0, 1, depth=1)
        res = flow_cut_for_band(band)
        assert res is not None
        value, new_side = res
        from repro.refinement import cut_between_sides

        assert value <= cut_between_sides(band.graph, band.side)
        # the flow cut is the min cut: on a 6-row grid that is 6
        assert value >= 6.0

    def test_fixed_nodes_unchanged(self):
        g, part = self._bad_split_grid()
        band, _ = extract_band(g, part, 0, 1, depth=2)
        res = flow_cut_for_band(band)
        assert res is not None
        _, new_side = res
        fixed = ~band.movable
        assert np.array_equal(new_side[fixed], band.side[fixed])

    def test_degenerate_no_halo(self):
        # whole graph is in the band: no fixed anchors -> None
        g = grid2d_graph(3, 3)
        part = (np.arange(9) % 3 >= 2).astype(np.int64)
        band, _ = extract_band(g, part, 0, 1, depth=10)
        if not (~band.movable).any():
            assert flow_cut_for_band(band) is None

    def test_empty_band(self):
        g = grid2d_graph(3, 3)
        part = np.zeros(9, dtype=np.int64)
        band, _ = extract_band(g, part, 0, 1, depth=2)
        assert flow_cut_for_band(band) is None


class TestFlowRefinePair:
    def test_refine_pair_flow_improves(self):
        g = grid2d_graph(8, 8)
        part = (np.arange(64) % 8 >= 4).astype(np.int64)
        part[3] = 1
        part[11] = 1
        part[36] = 0
        block_w = metrics.block_weights(g, part, 2)
        cut0 = metrics.cut_value(g, part)
        pr = refine_pair(
            g, part, block_w, 0, 1, lmax=metrics.lmax(g, 2, 0.10),
            depth=3, alpha=0.5, queue_selection="top_gain",
            seed_a=1, seed_b=2, block_sizes=(32, 32),
            algorithm="flow",
        )
        assert metrics.cut_value(g, part) <= cut0
        assert np.allclose(block_w, metrics.block_weights(g, part, 2))

    def test_unknown_algorithm(self, two_triangles):
        part = np.array([0, 0, 0, 1, 1, 1])
        block_w = metrics.block_weights(two_triangles, part, 2)
        with pytest.raises(ValueError):
            refine_pair(two_triangles, part, block_w, 0, 1, 4.0, 2, 0.5,
                        "top_gain", 1, 2, (3, 3), algorithm="simulated_annealing")


class TestEndToEnd:
    @pytest.mark.parametrize("alg", ["flow", "fm_flow"])
    def test_full_pipeline(self, alg):
        g = delaunay_graph(600, seed=6)
        cfg = FAST.derive(refine_algorithm=alg)
        res = KappaPartitioner(cfg).partition(g, 4, seed=0)
        assert res.partition.is_feasible()

    def test_fm_flow_at_least_as_good_as_fm_on_average(self):
        g = delaunay_graph(800, seed=7)
        cuts_fm, cuts_both = [], []
        for seed in range(2):
            cuts_fm.append(KappaPartitioner(FAST).partition(
                g, 4, seed=seed).cut)
            cuts_both.append(KappaPartitioner(
                FAST.derive(refine_algorithm="fm_flow")).partition(
                    g, 4, seed=seed).cut)
        assert np.mean(cuts_both) <= np.mean(cuts_fm) * 1.05

    def test_pairwise_driver_accepts_algorithm(self):
        g = random_geometric_graph(300, seed=8)
        part0 = np.random.default_rng(0).integers(0, 3, g.n)
        out = pairwise_refinement(g, part0, 3, seed=1,
                                  pair_algorithm="fm_flow",
                                  max_global_iterations=2)
        assert metrics.cut_value(g, out) <= metrics.cut_value(g, part0)

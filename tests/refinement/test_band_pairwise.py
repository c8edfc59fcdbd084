import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.generators import delaunay_graph, random_geometric_graph
from repro.graph import from_edge_list, grid2d_graph
from repro.engine import get_engine
from repro.core.objectives import Topology
from repro.graph.quotient import quotient_graph
from repro.refinement import extract_band, pairwise_refinement, refine_pair
from repro.refinement.band import cut_candidates
from repro.refinement.pairwise import _pair_seed, _schedule_quotient
from repro.refinement.scheduling import coloring_rounds


class TestBand:
    def _grid_with_split(self):
        g = grid2d_graph(6, 6)
        part = (np.arange(36) % 6 >= 3).astype(np.int64)  # left/right halves
        return g, part

    def test_depth1_is_boundary_only(self):
        g, part = self._grid_with_split()
        band, _ = extract_band(g, part, 0, 1, depth=1)
        # boundary columns 2 and 3 movable; columns 1 and 4 as halo
        assert int(band.movable.sum()) == 12
        assert band.graph.n == 24
        assert band.n_boundary == 12

    def test_deeper_band_grows(self):
        g, part = self._grid_with_split()
        b1, _ = extract_band(g, part, 0, 1, depth=1)
        b2, _ = extract_band(g, part, 0, 1, depth=2)
        assert int(b2.movable.sum()) > int(b1.movable.sum())

    def test_halo_immovable_and_correct_side(self):
        g, part = self._grid_with_split()
        band, _ = extract_band(g, part, 0, 1, depth=1)
        for i in range(band.graph.n):
            parent = int(band.smap.to_parent[i])
            assert band.side[i] == part[parent]

    def test_non_adjacent_pair_empty(self):
        g = grid2d_graph(4, 4)
        part = np.zeros(16, dtype=np.int64)
        part[np.arange(16) % 4 == 1] = 1
        part[np.arange(16) % 4 == 2] = 2
        part[np.arange(16) % 4 == 3] = 3
        band, _ = extract_band(g, part, 0, 3, depth=2)
        assert band.graph.n == 0 or band.n_boundary == 0

    def test_third_block_nodes_excluded(self):
        g = grid2d_graph(3, 6)
        part = np.repeat([0, 1, 2], 6)[np.argsort(np.argsort(np.arange(18)))]
        part = np.array([0] * 6 + [1] * 6 + [2] * 6)
        band, _ = extract_band(g, part, 0, 1, depth=5)
        parents = band.smap.to_parent
        assert not np.any(part[parents] == 2)


class TestRefinePair:
    def test_improves_pair(self):
        g = grid2d_graph(6, 6)
        rng = np.random.default_rng(0)
        part = rng.integers(0, 2, 36)
        block_w = metrics.block_weights(g, part, 2)
        cut0 = metrics.cut_value(g, part)
        pr = refine_pair(
            g, part, block_w, 0, 1, lmax=metrics.lmax(g, 2, 0.03),
            depth=5, alpha=0.5, queue_selection="top_gain",
            seed_a=1, seed_b=2, block_sizes=(18, 18),
        )
        assert pr.gain > 0
        assert metrics.cut_value(g, part) == cut0 - pr.gain
        assert np.allclose(block_w, metrics.block_weights(g, part, 2))

    def test_no_change_returns_empty(self, two_triangles):
        part = np.array([0, 0, 0, 1, 1, 1])
        block_w = metrics.block_weights(two_triangles, part, 2)
        pr = refine_pair(
            two_triangles, part, block_w, 0, 1,
            lmax=metrics.lmax(two_triangles, 2, 0.03),
            depth=3, alpha=1.0, queue_selection="top_gain",
            seed_a=1, seed_b=2, block_sizes=(3, 3),
        )
        assert pr.changed == [] and pr.gain == 0.0


class TestPairwiseRefinement:
    def test_reduces_cut_random_partition(self):
        g = random_geometric_graph(500, seed=1)
        rng = np.random.default_rng(2)
        part0 = rng.integers(0, 4, g.n)
        part1 = pairwise_refinement(g, part0, 4, seed=5)
        assert metrics.cut_value(g, part1) < metrics.cut_value(g, part0)

    def test_keeps_or_restores_balance(self, delaunay400):
        g = delaunay400
        rng = np.random.default_rng(3)
        part0 = rng.integers(0, 4, g.n)  # random: roughly balanced
        part1 = pairwise_refinement(g, part0, 4, epsilon=0.10, seed=5)
        assert metrics.is_balanced(g, part1, 4, 0.10)

    def test_deterministic(self):
        g = delaunay_graph(300, seed=4)
        part0 = np.random.default_rng(1).integers(0, 3, g.n)
        a = pairwise_refinement(g, part0, 3, seed=9)
        b = pairwise_refinement(g, part0, 3, seed=9)
        assert np.array_equal(a, b)

    def test_stop_rule_always_single_iteration(self):
        g = delaunay_graph(300, seed=4)
        part0 = np.random.default_rng(1).integers(0, 3, g.n)
        quick = pairwise_refinement(g, part0, 3, seed=9, stop_rule="always")
        full = pairwise_refinement(g, part0, 3, seed=9,
                                   max_global_iterations=15)
        assert metrics.cut_value(g, full) <= metrics.cut_value(g, quick)

    def test_invalid_coloring_mode(self, two_triangles):
        with pytest.raises(ValueError):
            pairwise_refinement(
                two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2,
                coloring="rainbow",
            )

    def test_k1_noop(self, two_triangles):
        part = np.zeros(6, dtype=np.int64)
        out = pairwise_refinement(two_triangles, part, 1, seed=0)
        assert np.array_equal(out, part)

    def test_within_mask_confines_moves(self):
        g = random_geometric_graph(500, seed=1)
        part0 = np.random.default_rng(2).integers(0, 4, g.n)
        within = g.coords[:, 0] < 0.5
        part1 = pairwise_refinement(g, part0, 4, seed=5, within=within)
        assert np.array_equal(part1[~within], part0[~within])
        assert (part1[within] != part0[within]).any()
        assert metrics.cut_value(g, part1) < metrics.cut_value(g, part0)

    def test_within_all_true_equals_unrestricted(self):
        g = random_geometric_graph(500, seed=1)
        part0 = np.random.default_rng(2).integers(0, 4, g.n)
        free = pairwise_refinement(g, part0, 4, seed=5)
        everywhere = pairwise_refinement(g, part0, 4, seed=5,
                                         within=np.ones(g.n, dtype=bool))
        assert np.array_equal(free, everywhere)

    def test_empty_within_moves_nothing(self):
        g = random_geometric_graph(300, seed=1)
        part0 = np.random.default_rng(2).integers(0, 4, g.n)
        out = pairwise_refinement(g, part0, 4, seed=5,
                                  within=np.zeros(g.n, dtype=bool))
        assert np.array_equal(out, part0)

    @given(seed=st.integers(0, 2**16), k=st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_schedule_quotient_from_cut_rows_is_q(self, seed, k):
        """Built from the rows of the cut nodes, the schedule's quotient
        has exactly Q's edges."""
        g = random_geometric_graph(120, seed=seed % 7)
        part = np.random.default_rng(seed).integers(0, k, g.n)
        part[: g.n // 2] = 0  # some blocks never meet
        q = quotient_graph(g, part, k)
        sq = _schedule_quotient(g, part, k, cut_candidates(g, part))
        assert np.array_equal(q.xadj, sq.xadj)
        assert np.array_equal(q.adjncy, sq.adjncy)


class TestColorBatching:
    """The sequential driver refines a color class as local iterations
    over all its live pairs; that must equal refining each pair to
    completion before the next (one global iteration compared)."""

    K, EPS, DEPTH, ALPHA = 16, 0.2, 3, 0.05

    def _instance(self, seed):
        g = random_geometric_graph(2000, seed=5)
        rng = np.random.default_rng(seed)
        cell = (np.floor(g.coords[:, 0] * 4) * 4
                + np.floor(g.coords[:, 1] * 4)).astype(np.int64)
        part = np.clip(cell, 0, self.K - 1)
        flip = rng.random(g.n) < 0.3
        part[flip] = rng.integers(0, self.K, int(flip.sum()))
        return g, part

    def _pair_by_pair(self, g, part, seed, dist):
        part = part.copy()
        lmax = metrics.lmax(g, self.K, self.EPS)
        block_w = metrics.block_weights(g, part, self.K)
        for matching in coloring_rounds(quotient_graph(g, part, self.K),
                                        seed):
            for a, b in matching:
                sizes = (int((part == a).sum()), int((part == b).sum()))
                for lit in range(3):
                    pr = refine_pair(
                        g, part, block_w, a, b, lmax, self.DEPTH,
                        self.ALPHA, "top_gain",
                        _pair_seed(seed, 0, lit, a, b, 0),
                        _pair_seed(seed, 0, lit, a, b, 1),
                        sizes, dist=dist)
                    if not pr.changed:
                        break
        return part

    @pytest.mark.parametrize("objective", ["cut", "mapping"])
    @pytest.mark.parametrize("seed", range(6, 12))
    def test_matches_pair_by_pair(self, objective, seed):
        g, part = self._instance(seed)
        topology = Topology.parse("2:2:4") if objective == "mapping" \
            else None
        dist = None if topology is None else topology.distance_matrix()
        batched = pairwise_refinement(
            g, part, self.K, epsilon=self.EPS, bfs_depth=self.DEPTH,
            alpha=self.ALPHA, max_global_iterations=1, stop_rule="always",
            seed=seed, topology=topology)
        assert np.array_equal(batched,
                              self._pair_by_pair(g, part, seed, dist))


class TestSPMDEquivalence:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_spmd_matches_sequential(self, k):
        g = random_geometric_graph(300, seed=6)
        part0 = np.random.default_rng(4).integers(0, k, g.n)
        seq = pairwise_refinement(
            g, part0, k, seed=11, coloring="distributed",
            max_global_iterations=3,
        )
        res = get_engine("sim", k).run(
            lambda comm: pairwise_refinement(
                g, part0, k, seed=11, coloring="distributed",
                max_global_iterations=3, comm=comm))
        for r in range(k):
            assert np.array_equal(res.results[r], seq)

    def test_spmd_charges_simulated_time(self):
        g = random_geometric_graph(300, seed=6)
        part0 = np.random.default_rng(4).integers(0, 2, g.n)
        res = get_engine("sim", 2).run(
            lambda comm: pairwise_refinement(
                g, part0, 2, seed=1, coloring="distributed",
                max_global_iterations=2, comm=comm))
        assert res.makespan > 0
        assert res.bytes_sent > 0  # FM results and moves really sent


class TestHotPathSubgraphs:
    """Pair FM reads the band's lists; only readers of ``Band.graph``
    (the sim engine's band-exchange charge, the flow refiner) build a
    band subgraph."""

    @staticmethod
    def _count_builds(monkeypatch):
        import repro.refinement.band as band_mod

        built = []
        original = band_mod.induced_subgraph

        def counted(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(band_mod, "induced_subgraph", counted)
        return built

    def test_sequential_fast_partition_builds_no_band_subgraph(
            self, monkeypatch, delaunay512):
        from repro.core import FAST, KappaPartitioner

        built = self._count_builds(monkeypatch)
        res = KappaPartitioner(FAST).partition(delaunay512, 8, seed=3)
        assert res.partition.cut > 0
        assert built == []

    @pytest.mark.parametrize("engine", ["sequential", "sim"])
    def test_spmd_builds_band_subgraph_only_to_charge_it(
            self, monkeypatch, engine):
        """The partners' band exchange is modelled, not sent: only the
        sim engine's cost charge reads ``Band.graph``, once per live
        pair and local iteration on each PE holding the pair."""
        import repro.refinement.pairwise as pairwise_mod

        built = self._count_builds(monkeypatch)
        extracted = []
        original = pairwise_mod.extract_bands

        def counted(*args, **kwargs):
            bands = original(*args, **kwargs)
            extracted.append(len(bands))
            return bands

        monkeypatch.setattr(pairwise_mod, "extract_bands", counted)
        g = random_geometric_graph(400, seed=6)
        part0 = np.random.default_rng(4).integers(0, 4, g.n)
        get_engine(engine, 2).run(
            lambda comm: pairwise_refinement(
                g, part0, 4, seed=2, coloring="distributed", comm=comm))
        assert sum(extracted) > 0
        assert len(built) == (sum(extracted) if engine == "sim" else 0)

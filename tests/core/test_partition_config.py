import numpy as np
import pytest

from repro.core.config import FAST, MINIMAL, STRONG, WALSHAW, KappaConfig, preset
from repro.core.partition import Partition
from repro.core.reporting import (
    RunRecord,
    format_table,
    geometric_mean,
    summarize,
)


class TestPartition:
    def test_cut_and_balance(self, two_triangles):
        p = Partition(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
        assert p.cut == 1.0
        assert p.balance == 1.0
        assert p.is_feasible()

    def test_block_nodes(self, two_triangles):
        p = Partition(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
        assert p.block_nodes(1).tolist() == [3, 4, 5]

    def test_quotient_view(self, two_triangles):
        p = Partition(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
        q = p.quotient()
        assert q.n == 2 and q.m == 1

    def test_boundary(self, two_triangles):
        p = Partition(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
        assert p.boundary().tolist() == [2, 3]

    def test_with_assignment_fresh_cache(self, two_triangles):
        p = Partition(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
        _ = p.cut
        p2 = p.with_assignment(np.zeros(6, dtype=np.int64))
        assert p2.cut == 0.0
        assert p.cut == 1.0

    def test_invalid_vector(self, triangle):
        with pytest.raises(ValueError):
            Partition(triangle, np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            Partition(triangle, np.array([0, 1, 5]), 2)

    def test_imbalance_penalty_positive_when_infeasible(self, two_triangles):
        p = Partition(two_triangles, np.array([0, 0, 0, 0, 0, 1]), 2, epsilon=0.0)
        assert p.imbalance_penalty() > 0
        assert not p.is_feasible()


class TestConfig:
    def test_presets_match_table2(self):
        assert MINIMAL.init_repeats == 1 and MINIMAL.fm_alpha == 0.01
        assert FAST.init_repeats == 3 and FAST.fm_alpha == 0.05
        assert STRONG.init_repeats == 5 and STRONG.fm_alpha == 0.20
        assert MINIMAL.bfs_band_depth == 1
        assert FAST.bfs_band_depth == 5
        assert STRONG.bfs_band_depth == 20
        assert STRONG.stop_rule == "twice_no_change"
        assert MINIMAL.max_global_iterations == 1
        for cfg in (MINIMAL, FAST, STRONG):
            assert cfg.rating == "expansion_star2"
            assert cfg.matching == "gpa"

    def test_walshaw_variant(self):
        assert WALSHAW.fm_alpha == 0.30
        assert WALSHAW.bfs_band_depth == 20

    def test_preset_lookup(self):
        assert preset("fast") is FAST
        with pytest.raises(ValueError):
            preset("bogus")

    def test_derive(self):
        cfg = FAST.derive(epsilon=0.05)
        assert cfg.epsilon == 0.05 and FAST.epsilon == 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            KappaConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            KappaConfig(fm_alpha=0.0)
        with pytest.raises(ValueError):
            KappaConfig(stop_rule="bogus")
        with pytest.raises(ValueError):
            KappaConfig(init_repeats=0)
        with pytest.raises(ValueError):
            KappaConfig(bfs_band_depth=0)


class TestReporting:
    def test_geometric_mean(self):
        assert np.isclose(geometric_mean([1, 100]), 10.0)
        assert np.isclose(geometric_mean([5]), 5.0)

    def test_geometric_mean_zero_clamped(self):
        assert geometric_mean([0.0, 4.0]) < 1.0  # clamped, tiny but defined

    def test_geometric_mean_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def _recs(self):
        return [
            RunRecord("kappa", "g1", 2, 0.03, cut=10, balance=1.02, time_s=1.0, seed=0),
            RunRecord("kappa", "g1", 2, 0.03, cut=12, balance=1.04, time_s=3.0, seed=1),
            RunRecord("kappa", "g2", 2, 0.03, cut=7, balance=1.0, time_s=0.5, seed=0),
        ]

    def test_summarize_groups(self):
        s = summarize(self._recs())
        assert len(s) == 2
        g1 = next(x for x in s if x.instance == "g1")
        assert g1.runs == 2
        assert g1.avg_cut == 11 and g1.best_cut == 10
        assert np.isclose(g1.avg_balance, 1.03)
        assert g1.avg_time == 2.0

    def test_summarize_sim_time(self):
        recs = [
            RunRecord("a", "g", 2, 0.03, cut=1, balance=1, time_s=1, sim_time_s=4.0),
            RunRecord("a", "g", 2, 0.03, cut=1, balance=1, time_s=1, sim_time_s=6.0),
        ]
        assert summarize(recs)[0].avg_sim_time == 5.0

    def test_format_table(self):
        txt = format_table([["a", 1.5], ["bb", 2.25]], headers=["name", "val"])
        lines = txt.splitlines()
        assert lines[0].startswith("name")
        assert "1.500" in txt and "2.250" in txt


class TestObjectiveConfig:
    def test_mapping_preset(self):
        from repro.core import MAPPING

        assert preset("mapping") is MAPPING
        assert MAPPING.objective == "mapping"
        assert MAPPING.refine_algorithm == "fm"

    def test_defaults_are_classic(self):
        cfg = KappaConfig()
        assert cfg.objective == "cut"
        assert cfg.topology is None
        assert cfg.epsilons is None

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            KappaConfig(objective="conductance")

    def test_retired_jit_kernel_backend_rejected(self):
        # the JIT backend is gone; naming it no longer falls back to numpy
        with pytest.raises(ValueError,
                           match=r"\('python', 'numpy'\)"):
            KappaConfig(kernel_backend="numba")

    def test_mapping_requires_fm(self):
        with pytest.raises(ValueError, match="requires refine_algorithm"):
            KappaConfig(objective="mapping", refine_algorithm="fm_flow")

    def test_topology_requires_mapping_objective(self):
        with pytest.raises(ValueError, match="objective"):
            KappaConfig(topology="2:4")

    def test_bad_topology_spec_fails_fast(self):
        with pytest.raises(ValueError, match="bad topology spec"):
            KappaConfig(objective="mapping", topology="2:x")

    def test_epsilons_validated(self):
        with pytest.raises(ValueError):
            KappaConfig(epsilons=())
        with pytest.raises(ValueError):
            KappaConfig(epsilons=(0.03, -0.1))
        cfg = KappaConfig(epsilons=(0.03, 0.25))
        assert cfg.epsilons == (0.03, 0.25)

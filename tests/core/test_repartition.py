"""Repartitioning a changed graph from an old partition: the
``incremental_repartition`` call with every node dirty."""

import hashlib

import numpy as np
import pytest

from repro.core import (FAST, MINIMAL, incremental_repartition, metrics,
                        partition_graph)
from repro.experiments.repartition_exp import perturb_weights as grow_weights
from repro.generators import delaunay_graph, load
from repro.graph import Graph, validate_partition


def perturb_weights(g, seed=0, frac=0.1):
    """Simulate adaptive refinement: some node weights grow."""
    rng = np.random.default_rng(seed)
    vwgt = g.vwgt.copy()
    hot = rng.choice(g.n, size=max(1, int(frac * g.n)), replace=False)
    vwgt[hot] *= 3.0
    return Graph(g.xadj, g.adjncy, g.adjwgt, vwgt, coords=g.coords,
                 validate=False)


def repartition(g, old_part, k, config=FAST, seed=0):
    """Refine ``old_part`` on ``g`` with every node dirty."""
    return incremental_repartition(g, old_part, k, np.arange(g.n),
                                   config=config, seed=seed)


def digest(a) -> str:
    """sha256 over dtype, shape and the raw bytes of ``a``."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


class TestRepartition:
    @pytest.fixture(scope="class")
    def scenario(self):
        g = delaunay_graph(800, seed=11)
        base = partition_graph(g, 4, config=FAST, seed=0)
        g2 = perturb_weights(g, seed=1)
        return g, g2, base

    def test_restores_feasibility(self, scenario):
        g, g2, base = scenario
        res = repartition(g2, base.partition.part, 4, config=FAST, seed=0)
        assert metrics.is_balanced(g2, res.partition.part, 4, 0.03)

    def test_migrates_little(self, scenario):
        g, g2, base = scenario
        res = repartition(g2, base.partition.part, 4, config=FAST, seed=0)
        # from-scratch partitioning of g2 would place nodes arbitrarily
        fresh = partition_graph(g2, 4, config=FAST, seed=1)
        fresh_moved = (fresh.partition.part != base.partition.part).mean()
        assert res.migration_fraction < 0.5 * max(fresh_moved, 0.2)

    def test_quality_comparable_to_fresh(self, scenario):
        g, g2, base = scenario
        res = repartition(g2, base.partition.part, 4, config=FAST, seed=0)
        fresh = partition_graph(g2, 4, config=FAST, seed=0)
        assert res.cut <= 1.5 * fresh.cut

    def test_partition_pinned(self, scenario):
        """The digest the retired stand-alone ``repartition`` returned."""
        g, g2, base = scenario
        res = repartition(g2, base.partition.part, 4, config=FAST, seed=0)
        assert digest(res.partition.part) == "f75cc00bd08d40d7"
        assert (res.cut, res.migrated_nodes) == (220.0, 0)
        assert not res.used_fallback

    def test_noop_when_still_feasible(self):
        g = delaunay_graph(400, seed=12)
        base = partition_graph(g, 4, config=FAST, seed=0)
        res = repartition(g, base.partition.part, 4, config=MINIMAL, seed=0)
        # unchanged graph: nothing (or almost nothing) migrates
        assert res.migration_fraction < 0.05
        assert res.cut <= base.cut + 1e-9

    def test_out_of_range_ids_repaired(self):
        g = delaunay_graph(200, seed=13)
        part = np.random.default_rng(0).integers(0, 4, g.n)
        part[:5] = 99
        res = repartition(g, part, 4, config=MINIMAL, seed=0)
        assert res.partition.part.max() < 4
        assert metrics.is_balanced(g, res.partition.part, 4, 0.03)

    def test_wrong_length_rejected(self):
        """Longer than ``g.n``, or 2-D, is rejected; shorter means the
        nodes beyond it were appended."""
        g = delaunay_graph(100, seed=13)
        with pytest.raises(ValueError):
            repartition(g, np.zeros(g.n + 1, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            repartition(g, np.zeros((g.n, 1), dtype=np.int64), 2)
        res = repartition(g, np.zeros(5, dtype=np.int64), 2)
        assert len(res.partition.part) == g.n

    def test_migration_accounting(self):
        g = delaunay_graph(300, seed=14)
        base = partition_graph(g, 3, config=MINIMAL, seed=0)
        g2 = perturb_weights(g, seed=2, frac=0.3)
        res = repartition(g2, base.partition.part, 3, config=MINIMAL, seed=0)
        moved = res.partition.part != base.partition.part
        assert res.migrated_nodes == int(moved.sum())
        assert np.isclose(res.migrated_weight, g2.vwgt[moved].sum())


class TestRunConfigForwarded:
    """The band refinement optimises what the run asks for: the
    per-dimension ``epsilons`` and, under ``objective="mapping"``, the
    mapping topology reach ``pairwise_refinement``, and the feasibility
    checks read every constraint dimension."""

    @staticmethod
    def _refine_kwargs(monkeypatch, g, g2, config, k=4):
        """Repartition ``g2`` from a partition of ``g``; returns the
        keyword arguments the repartition's ``pairwise_refinement`` call
        (made by ``core.spmd.refine``, the one call site) saw and the
        result."""
        import repro.core.spmd as spmd

        seen = {}
        real = spmd.pairwise_refinement

        def spy(*args, **kwargs):
            if kwargs.get("within") is not None:
                seen.update(kwargs)
            return real(*args, **kwargs)

        old = partition_graph(g, k, config=MINIMAL, seed=0).partition.part
        monkeypatch.setattr(spmd, "pairwise_refinement", spy)
        return seen, repartition(g2, old, k, config=config, seed=1)

    def test_mapping_topology(self, monkeypatch):
        g = delaunay_graph(300, seed=5)
        seen, _ = self._refine_kwargs(
            monkeypatch, g, perturb_weights(g, seed=3),
            MINIMAL.derive(objective="mapping"))
        assert seen["topology"] is not None and seen["topology"].k == 4

    def test_cut_objective_has_no_topology(self, monkeypatch):
        g = delaunay_graph(300, seed=5)
        seen, _ = self._refine_kwargs(monkeypatch, g,
                                      perturb_weights(g, seed=3), MINIMAL)
        assert seen["topology"] is None and seen["epsilons"] is None

    def test_multi_constraint_epsilons(self, monkeypatch):
        g = delaunay_graph(300, seed=5)
        rng = np.random.default_rng(2)

        def two_dims(extra):
            return Graph(g.xadj, g.adjncy, g.adjwgt, g.vwgt,
                         coords=g.coords,
                         vwgts=np.column_stack([g.vwgt, extra]))

        extra = rng.integers(1, 6, g.n).astype(float)
        grown = extra.copy()
        grown[rng.choice(g.n, size=g.n // 5, replace=False)] *= 3.0
        cfg = MINIMAL.derive(epsilons=(0.03, 0.1))
        seen, res = self._refine_kwargs(monkeypatch, two_dims(extra),
                                        two_dims(grown), cfg)
        assert tuple(seen["epsilons"]) == (0.03, 0.1)
        validate_partition(two_dims(grown), res.partition.part, 4,
                           epsilons=(0.03, 0.1))


def test_bench_cell_pinned():
    """One cell of the Section 8 repartitioning bench (road10k, k=8,
    seed 0): the digest the retired stand-alone ``repartition``
    returned."""
    g = load("road10k")
    base = partition_graph(g, 8, config=FAST, seed=0)
    g2 = grow_weights(g, seed=1)
    res = repartition(g2, base.partition.part, 8, config=FAST, seed=0)
    assert digest(res.partition.part) == "4497f007f9d0d5da"
    assert (res.cut, res.migrated_nodes) == (419.0, 123)

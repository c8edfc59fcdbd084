"""Determinism contract tests: every public entry point is a pure
function of (inputs, seed)."""

import numpy as np
import pytest

from repro.baselines import (
    metis_like_partition,
    parmetis_like_partition,
    scotch_like_partition,
)
from repro.coarsening import coarsen, dispatch, parallel_matching, prepartition
from repro.core import (FAST, MINIMAL, incremental_repartition,
                        partition_graph)
from repro.generators import (
    delaunay_graph,
    graded_mesh,
    preferential_attachment,
    random_geometric_graph,
    rmat_graph,
    road_network,
    sphere_mesh,
    stiffness_graph,
)
from repro.initial import initial_partition
from repro.refinement import pairwise_refinement
from repro.walshaw import walshaw_best


@pytest.fixture(scope="module")
def mesh():
    return delaunay_graph(400, seed=21)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("fn,kwargs", [
        (random_geometric_graph, {"n": 200}),
        (delaunay_graph, {"n": 200}),
        (road_network, {"n": 300}),
        (preferential_attachment, {"n": 200}),
        (rmat_graph, {"scale": 7}),
        (sphere_mesh, {"n": 150}),
        (graded_mesh, {"n": 200}),
        (stiffness_graph, {"n_elements": 100}),
    ])
    def test_same_seed_same_graph(self, fn, kwargs):
        assert fn(seed=5, **kwargs) == fn(seed=5, **kwargs)

    @pytest.mark.parametrize("fn,kwargs", [
        (random_geometric_graph, {"n": 200}),
        (delaunay_graph, {"n": 200}),
        (preferential_attachment, {"n": 200}),
    ])
    def test_different_seed_different_graph(self, fn, kwargs):
        assert fn(seed=5, **kwargs) != fn(seed=6, **kwargs)


class TestAlgorithmDeterminism:
    def test_matching(self, mesh):
        for alg in ("shem", "greedy", "gpa"):
            a = dispatch(mesh, algorithm=alg, rng=np.random.default_rng(3))
            b = dispatch(mesh, algorithm=alg, rng=np.random.default_rng(3))
            assert np.array_equal(a, b)

    def test_parallel_matching(self, mesh):
        owner = prepartition(mesh, 3)
        a = parallel_matching(mesh, owner, 3, seed=4)
        b = parallel_matching(mesh, owner, 3, seed=4)
        assert np.array_equal(a, b)

    def test_coarsen(self, mesh):
        ha = coarsen(mesh, 4, seed=5)
        hb = coarsen(mesh, 4, seed=5)
        assert ha.depth == hb.depth
        for ga, gb in zip(ha.graphs, hb.graphs):
            assert ga == gb

    def test_initial_partition(self, mesh):
        a = initial_partition(mesh, 4, repeats=2, seed=6)
        b = initial_partition(mesh, 4, repeats=2, seed=6)
        assert np.array_equal(a, b)

    def test_pairwise_refinement(self, mesh):
        part0 = np.random.default_rng(0).integers(0, 4, mesh.n)
        a = pairwise_refinement(mesh, part0, 4, seed=7,
                                max_global_iterations=2)
        b = pairwise_refinement(mesh, part0, 4, seed=7,
                                max_global_iterations=2)
        assert np.array_equal(a, b)


class TestToolDeterminism:
    @pytest.mark.parametrize("fn", [
        metis_like_partition,
        parmetis_like_partition,
        scotch_like_partition,
    ])
    def test_baselines(self, mesh, fn):
        a = fn(mesh, 4, 0.03, 9)
        b = fn(mesh, 4, 0.03, 9)
        assert np.array_equal(a.partition.part, b.partition.part)

    def test_kappa_all_presets(self, mesh):
        for cfg in (MINIMAL, FAST):
            a = partition_graph(mesh, 4, config=cfg, seed=10)
            b = partition_graph(mesh, 4, config=cfg, seed=10)
            assert np.array_equal(a.partition.part, b.partition.part)

    def test_walshaw_best(self, mesh):
        a = walshaw_best(mesh, 2, 0.05, repeats_per_rating=1, seed=11)
        b = walshaw_best(mesh, 2, 0.05, repeats_per_rating=1, seed=11)
        assert a.cut == b.cut and a.rating == b.rating
        assert np.array_equal(a.part, b.part)

    def test_repartition(self, mesh):
        base = partition_graph(mesh, 4, config=MINIMAL, seed=0)
        every = np.arange(mesh.n)
        a = incremental_repartition(mesh, base.partition.part, 4, every,
                                    config=MINIMAL, seed=12)
        b = incremental_repartition(mesh, base.partition.part, 4, every,
                                    config=MINIMAL, seed=12)
        assert np.array_equal(a.partition.part, b.partition.part)

    def test_flow_variant(self, mesh):
        cfg = FAST.derive(refine_algorithm="fm_flow")
        a = partition_graph(mesh, 4, config=cfg, seed=13)
        b = partition_graph(mesh, 4, config=cfg, seed=13)
        assert np.array_equal(a.partition.part, b.partition.part)

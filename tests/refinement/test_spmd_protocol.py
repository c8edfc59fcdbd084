"""The SPMD refinement protocol's two shortcuts, checked rather than
assumed.

* **Termination without collectives.** The driver stops a global
  iteration on ``total_moved == 0`` alone — with a ``comm``, the global
  move count it already holds after the per-color allgathers — rather
  than also testing ``gain <= 1e-12``.  That is the same test only if a
  pair that moves nothing reports zero gain.
* **Split seeds (paper §5).** The two owners of a pair each run one of
  its seeded FM searches and trade the results, so across all PEs every
  search runs exactly once — as many FM runs as the run without a
  ``comm``.
* **Replayed schedules.** Both pair schedules are pure functions of
  (Q, seed), so every PE computes the one the run's config selects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FAST, KappaPartitioner, metrics
from repro.engine import get_engine
from repro.generators import random_geometric_graph
from repro.refinement import pairwise_refinement, refine_pair
from repro.refinement.fm import FMSearch
from tests.conftest import random_graphs


@given(g=random_graphs(max_n=30, connected=True),
       seed=st.integers(0, 2**31 - 1),
       algorithm=st.sampled_from(["fm", "flow", "fm_flow"]),
       epsilon=st.sampled_from([0.0, 0.03, 0.5]))
@settings(max_examples=60, deadline=None)
def test_no_move_means_no_gain(g, seed, algorithm, epsilon):
    rng = np.random.default_rng(seed)
    part = rng.integers(0, 2, g.n)
    block_w = metrics.block_weights(g, part, 2)
    pr = refine_pair(
        g, part, block_w, 0, 1, lmax=metrics.lmax(g, 2, epsilon),
        depth=3, alpha=1.0, queue_selection="top_gain",
        seed_a=seed, seed_b=seed + 1,
        block_sizes=(int((part == 0).sum()), int((part == 1).sum())),
        algorithm=algorithm,
    )
    if not pr.changed:
        assert pr.gain == 0.0 and pr.imbalance_delta == 0.0
    if pr.gain > 1e-12:
        assert pr.changed


@pytest.mark.parametrize("k,p", [(2, 2), (4, 4), (4, 2)])
def test_each_seeded_search_runs_once(monkeypatch, k, p):
    runs = []
    original = FMSearch.run

    def counted(self, *args, **kwargs):
        runs.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FMSearch, "run", counted)
    g = random_geometric_graph(400, seed=6)
    part0 = np.random.default_rng(k).integers(0, k, g.n)
    seq = pairwise_refinement(g, part0, k, seed=2, coloring="distributed")
    seq_runs = len(runs)
    runs.clear()
    res = get_engine("sequential", p).run(
        lambda comm: pairwise_refinement(g, part0, k, seed=2, comm=comm,
                                         coloring="distributed"))
    for part in res.results:
        assert np.array_equal(part, seq)
    assert seq_runs > 0 and len(runs) == seq_runs


@pytest.mark.parametrize("engine", ["sequential", "sim"])
@pytest.mark.parametrize("k,p", [(4, 2), (4, 4)])
def test_random_local_schedule_any_p(engine, k, p):
    """The randomized-local schedule is a pure function of (Q, seed), so
    every PE replays it and the SPMD run equals the run without a
    ``comm``."""
    g = random_geometric_graph(400, seed=6)
    part0 = np.random.default_rng(k).integers(0, k, g.n)
    seq = pairwise_refinement(g, part0, k, seed=2,
                              matching_selection="random_local")
    res = get_engine(engine, p).run(
        lambda comm: pairwise_refinement(
            g, part0, k, seed=2, matching_selection="random_local",
            coloring="distributed", comm=comm))
    for part in res.results:
        assert np.array_equal(part, seq)


def test_cluster_path_honours_matching_selection():
    g = random_geometric_graph(600, seed=3)
    parts = [
        KappaPartitioner(FAST.derive(matching_selection=sel)).partition(
            g, 4, seed=3, execution="cluster", engine="sim").partition.part
        for sel in ("edge_coloring", "random_local")
    ]
    assert not np.array_equal(*parts)

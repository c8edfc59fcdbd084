import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coarsening import (
    locally_dominant_matching,
    parallel_matching,
    parallel_matching_spmd,
    prepartition,
)
from repro.generators import random_geometric_graph
from repro.graph import from_edge_list, validate_matching
from repro.engine import get_engine
from tests.conftest import random_graphs


class TestLocallyDominant:
    def test_single_edge(self):
        pairs = locally_dominant_matching(
            np.array([0]), np.array([1]), np.array([5.0]), 2
        )
        assert pairs == [(0, 1)]

    def test_path_picks_heaviest(self):
        # path 0-1-2 with weights 3, 5: edge (1,2) dominates
        us = np.array([0, 1])
        vs = np.array([1, 2])
        sc = np.array([3.0, 5.0])
        assert locally_dominant_matching(us, vs, sc, 3) == [(1, 2)]

    def test_two_rounds(self):
        # 0-1-2-3 weights 5,9,5: round 1 matches (1,2), round 2 nothing
        us = np.array([0, 1, 2])
        vs = np.array([1, 2, 3])
        sc = np.array([5.0, 9.0, 5.0])
        assert locally_dominant_matching(us, vs, sc, 4) == [(1, 2)]

    def test_disjoint_matched_same_round(self):
        us = np.array([0, 2])
        vs = np.array([1, 3])
        sc = np.array([1.0, 1.0])
        assert sorted(locally_dominant_matching(us, vs, sc, 4)) == [(0, 1), (2, 3)]

    def test_empty(self):
        assert locally_dominant_matching(
            np.array([], dtype=int), np.array([], dtype=int), np.array([]), 5
        ) == []

    def test_result_is_matching(self):
        rng = np.random.default_rng(3)
        n = 20
        us, vs = [], []
        for _ in range(40):
            a, b = rng.integers(0, n, 2)
            if a != b:
                us.append(min(a, b))
                vs.append(max(a, b))
        sc = rng.random(len(us))
        pairs = locally_dominant_matching(np.array(us), np.array(vs), sc, n)
        seen = set()
        for a, b in pairs:
            assert a not in seen and b not in seen
            seen.update((a, b))


class TestParallelMatching:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_valid(self, p):
        g = random_geometric_graph(300, seed=2)
        owner = prepartition(g, p)
        m = parallel_matching(g, owner, p, seed=1)
        validate_matching(g, m)

    def test_spmd_equals_sequential(self):
        g = random_geometric_graph(200, seed=4)
        for p in (2, 3, 4):
            owner = prepartition(g, p)
            m_seq = parallel_matching(g, owner, p, seed=7)
            res = get_engine("sim", p).run(parallel_matching_spmd, g, owner,
                                           seed=7)
            for r in range(p):
                assert np.array_equal(res.results[r], m_seq)

    def test_gap_edges_get_matched(self):
        # two heavy cross-partition edges must be taken by the gap phase
        g = from_edge_list(
            4,
            [(0, 1), (2, 3), (1, 2)],
            weights=[1.0, 1.0, 100.0],
        )
        owner = np.array([0, 0, 1, 1])
        m = parallel_matching(g, owner, 2, rating="weight", seed=0)
        validate_matching(g, m)
        assert m[1] == 2 and m[2] == 1  # the heavy bridge wins

    def test_local_partners_freed(self):
        # chain: 0=1 (local to PE0), 2=3 (local to PE1), heavy 1-2 bridge
        # frees 0 and 3 when the bridge matches
        g = from_edge_list(
            4, [(0, 1), (2, 3), (1, 2)], weights=[5.0, 5.0, 100.0]
        )
        owner = np.array([0, 0, 1, 1])
        m = parallel_matching(g, owner, 2, rating="weight", seed=0)
        assert m[0] == 0 and m[3] == 3

    def test_weak_cross_edges_not_in_gap(self):
        # bridge lighter than both local matches stays unmatched
        g = from_edge_list(
            4, [(0, 1), (2, 3), (1, 2)], weights=[5.0, 5.0, 1.0]
        )
        owner = np.array([0, 0, 1, 1])
        m = parallel_matching(g, owner, 2, rating="weight", seed=0)
        assert m[0] == 1 and m[2] == 3

    @given(st.integers(0, 2**31 - 1), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_spmd_consistency(self, seed, p):
        g = random_geometric_graph(120, seed=seed % 100)
        owner = prepartition(g, p)
        m_seq = parallel_matching(g, owner, p, seed=seed)
        validate_matching(g, m_seq)
        res = get_engine("sim", p).run(parallel_matching_spmd, g, owner,
                                       seed=seed)
        assert np.array_equal(res.results[0], m_seq)


def _exchanged_matching(comm, g, owner, algorithm="gpa",
                        rating="expansion_star2", seed=0):
    """Reference: the gap phase as a message protocol (a ``remaining``
    allreduce, a proposal alltoall and a dominant-set allreduce per
    round), the shape the replayed gap phase charges to the sim clock."""
    from repro.coarsening.matching.base import empty_matching
    from repro.coarsening.matching.parallel import (
        _apply_pairs, _drop_fixed_endpoints, _local_matching,
        _matched_scores, gap_edge_indices)
    from repro.coarsening.ratings import rate_edges

    owner = np.asarray(owner, dtype=np.int64)
    rank = comm.rank
    my_nodes = np.nonzero(owner == rank)[0]
    my_pairs = _local_matching(g, my_nodes, algorithm, rating,
                               comm.derive_rng(seed))
    comm.compute(len(my_nodes))
    matching = empty_matching(g.n)
    _apply_pairs(matching, np.concatenate(comm.allgather(my_pairs)))
    us, vs, _, scores = rate_edges(g, rating)
    mscore = _matched_scores(g.n, matching, us, vs, scores)
    gap = gap_edge_indices(owner, matching, us, vs, scores, mscore)
    gap = _drop_fixed_endpoints(g, us, vs, gap)
    gus, gvs, gsc = us[gap], vs[gap], scores[gap]
    order_pos = np.empty(len(gap), dtype=np.int64)
    order_pos[np.lexsort((np.arange(len(gap)), -gsc))] = np.arange(len(gap))
    alive = np.ones(len(gap), dtype=bool)
    mine_u = owner[gus] == rank
    touches_me = mine_u | (owner[gvs] == rank)
    my_end = np.where(mine_u, gus, gvs)
    partner_pe = owner[np.where(mine_u, gvs, gus)]
    while comm.allreduce(int(alive.sum())) > 0:
        edges = np.nonzero(alive & touches_me)[0]
        edges = edges[np.lexsort((order_pos[edges], my_end[edges]))]
        _, first = np.unique(my_end[edges], return_index=True)
        my_proposed = edges[first]
        dest = partner_pe[my_proposed]
        comm.compute(int(alive.sum()))
        incoming = comm.alltoall(
            [my_proposed[dest == d] for d in range(comm.size)])
        newly = np.intersect1d(np.concatenate(incoming), my_proposed)
        newly = comm.allreduce(newly, op=np.union1d)
        for u, v in zip(gus[newly].tolist(), gvs[newly].tolist()):
            for x in (u, v):
                if matching[x] != x:
                    matching[matching[x]] = matching[x]
            matching[u] = v
            matching[v] = u
        taken = np.zeros(g.n, dtype=bool)
        taken[gus[newly]] = True
        taken[gvs[newly]] = True
        alive &= ~(taken[gus] | taken[gvs])
    return matching


class TestReplayedGapPhase:
    """Every PE computes the gap phase alone; on the sim engine it still
    charges the rounds of the exchanged protocol."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_same_matching_and_clocks_as_exchanged(self, p):
        g = random_geometric_graph(300, seed=p)
        # a scattered owner map leaves a gap graph of several rounds
        owner = np.random.default_rng(p).integers(0, p, g.n)
        rep = get_engine("sim", p).run(parallel_matching_spmd, g, owner,
                                       seed=3)
        exc = get_engine("sim", p).run(_exchanged_matching, g, owner, seed=3)
        for a, b in zip(rep.results, exc.results):
            assert np.array_equal(a, b)
        assert rep.clocks == exc.clocks

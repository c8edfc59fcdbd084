import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import get_engine
from repro.graph import complete_graph, cycle_graph, grid2d_graph, path_graph, star_graph
from repro.parallel import (
    coloring_to_matchings,
    distributed_edge_coloring,
    distributed_edge_coloring_spmd,
    greedy_edge_coloring,
    verify_edge_coloring,
)
from tests.conftest import random_graphs


class TestGreedyColoring:
    def test_path(self):
        g = path_graph(5)
        colors = greedy_edge_coloring(g)
        verify_edge_coloring(g, colors)

    def test_star_needs_degree_colors(self):
        g = star_graph(7)
        colors = greedy_edge_coloring(g)
        verify_edge_coloring(g, colors)
        assert max(colors.values()) + 1 == 6  # star: exactly Δ colors

    def test_complete_graph(self):
        g = complete_graph(6)
        verify_edge_coloring(g, greedy_edge_coloring(g, seed=1))

    def test_empty(self):
        g = path_graph(1)
        assert greedy_edge_coloring(g) == {}

    @given(random_graphs(max_n=14), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_always_proper(self, g, seed):
        verify_edge_coloring(g, greedy_edge_coloring(g, seed=seed))


class TestDistributedColoring:
    @pytest.mark.parametrize("maker,arg", [
        (cycle_graph, 5),
        (complete_graph, 5),
        (star_graph, 6),
        (path_graph, 6),
    ])
    def test_small_topologies(self, maker, arg):
        q = maker(arg)
        colors = distributed_edge_coloring(q, seed=1)
        verify_edge_coloring(q, colors)

    def test_grid_quotient(self):
        q = grid2d_graph(3, 3, with_coords=False)
        colors = distributed_edge_coloring(q, seed=2)
        verify_edge_coloring(q, colors)

    def test_deterministic(self):
        q = complete_graph(6)
        assert distributed_edge_coloring(q, seed=5) == distributed_edge_coloring(q, seed=5)

    def test_empty_quotient(self):
        from repro.graph import empty_graph

        assert distributed_edge_coloring(empty_graph(0)) == {}

    def test_isolated_quotient_nodes(self):
        from repro.graph import from_edge_list

        q = from_edge_list(4, [(0, 1)])  # nodes 2, 3 isolated
        colors = distributed_edge_coloring(q, seed=3)
        verify_edge_coloring(q, colors)

    def test_matches_sequential_color_bound(self):
        # both must satisfy the same 2Δ−1 bound on an irregular graph
        from repro.graph import from_edge_list

        q = from_edge_list(
            6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (2, 4)]
        )
        verify_edge_coloring(q, distributed_edge_coloring(q, seed=7))


class TestDistributedColoringProperties:
    """Property-based guarantees of the paper's §5.1 coloring: on any
    quotient graph, no two adjacent edges share a color and the palette
    stays within twice the maximum degree."""

    @given(q=random_graphs(max_n=12), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_proper_and_within_two_delta(self, q, seed):
        colors = distributed_edge_coloring(q, seed=seed)
        assert len(colors) == q.m  # every quotient edge is scheduled
        # no two adjacent edges (sharing an endpoint) get the same color
        per_node = [set() for _ in range(q.n)]
        for (u, v), c in colors.items():
            assert c not in per_node[u] and c not in per_node[v]
            per_node[u].add(c)
            per_node[v].add(c)
        if colors:
            max_degree = int(q.degrees().max())
            assert max(colors.values()) + 1 <= 2 * max_degree

    @given(q=random_graphs(max_n=10), seed=st.integers(0, 1_000))
    @settings(max_examples=10, deadline=None)
    def test_replay_equals_kernel(self, q, seed):
        """The local replay is the union of the exchanged kernel's per-PE
        colorings, whatever the engine and the PE count."""
        replay = distributed_edge_coloring(q, seed=seed)
        for p in sorted({1, 2, q.n} & set(range(1, q.n + 1))):
            for engine in ("sim", "sequential"):
                merged = {}
                for local in get_engine(engine, p).run(
                        distributed_edge_coloring_spmd, q, seed).results:
                    for e, c in local.items():
                        assert merged.setdefault(e, c) == c
                assert merged == replay, (engine, p)


    @pytest.mark.parametrize("q,p", [
        (complete_graph(6), 2), (complete_graph(6), 3), (complete_graph(6), 6),
        (grid2d_graph(3, 3, with_coords=False), 4),
    ])
    def test_replay_charges_the_exchanged_rounds(self, q, p):
        """On the sim engine the replay advances every PE's clock exactly
        as the exchanged kernel does, without sending anything."""
        def replayed(comm):
            distributed_edge_coloring(q, seed=4, comm=comm)

        def exchanged(comm):
            distributed_edge_coloring_spmd(comm, q, 4)

        rep = get_engine("sim", p).run(replayed)
        exc = get_engine("sim", p).run(exchanged)
        assert rep.clocks == exc.clocks and rep.makespan > 0
        assert rep.bytes_sent == 0 and rep.messages_sent == 0


class TestMatchingsFromColoring:
    def test_groups_are_matchings(self):
        q = complete_graph(5)
        colors = greedy_edge_coloring(q, seed=3)
        for matching in coloring_to_matchings(colors):
            seen = set()
            for u, v in matching:
                assert u not in seen and v not in seen
                seen.update((u, v))

    def test_union_covers_all_edges(self):
        q = grid2d_graph(3, 3, with_coords=False)
        colors = greedy_edge_coloring(q, seed=4)
        ms = coloring_to_matchings(colors)
        assert sum(len(m) for m in ms) == q.m

    def test_empty(self):
        assert coloring_to_matchings({}) == []


class TestVerifier:
    def test_rejects_improper(self):
        g = path_graph(3)
        with pytest.raises(AssertionError):
            verify_edge_coloring(g, {(0, 1): 0, (1, 2): 0})

    def test_rejects_incomplete(self):
        g = path_graph(3)
        with pytest.raises(AssertionError):
            verify_edge_coloring(g, {(0, 1): 0})

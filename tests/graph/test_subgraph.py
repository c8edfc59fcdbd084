import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (Graph, induced_subgraph, relabel, from_edge_list,
                         grid2d_graph)
from tests.conftest import random_graphs


class TestInducedSubgraph:
    def test_one_triangle(self, two_triangles):
        sub, smap = induced_subgraph(two_triangles, [0, 1, 2])
        assert sub.n == 3 and sub.m == 3
        assert np.array_equal(smap.to_parent, [0, 1, 2])

    def test_cut_edges_dropped(self, two_triangles):
        sub, _ = induced_subgraph(two_triangles, [2, 3])
        assert sub.m == 1  # only the bridge edge {2,3}

    def test_weights_preserved(self, weighted_path):
        sub, smap = induced_subgraph(weighted_path, [1, 2])
        assert sub.edge_weight(0, 1) == 1.0
        assert np.array_equal(smap.lift([0, 1]), [1, 2])

    def test_coords_sliced(self):
        g = grid2d_graph(2, 2)
        sub, smap = induced_subgraph(g, [1, 3])
        assert np.array_equal(sub.coords, g.coords[[1, 3]])

    def test_empty_selection(self, triangle):
        sub, _ = induced_subgraph(triangle, [])
        assert sub.n == 0 and sub.m == 0

    def test_duplicates_ignored(self, triangle):
        sub, _ = induced_subgraph(triangle, [0, 0, 1])
        assert sub.n == 2

    def test_out_of_range(self, triangle):
        with pytest.raises(ValueError):
            induced_subgraph(triangle, [5])

    def test_to_sub_inverse(self, grid8):
        nodes = [3, 17, 42, 60]
        sub, smap = induced_subgraph(grid8, nodes)
        for i, v in enumerate(sorted(nodes)):
            assert smap.to_sub[v] == i
        assert smap.to_sub[0] == -1

    def test_unsorted_rows_come_out_sorted(self):
        """Rows of the parent in descending target order: each subgraph
        row is sorted by target, weights travelling with their arcs."""
        g = Graph(np.array([0, 3, 5, 7, 8]),
                  np.array([3, 2, 1, 2, 0, 1, 0, 0]),
                  np.array([4.0, 3.0, 2.0, 5.0, 2.0, 5.0, 3.0, 4.0]),
                  np.ones(4))
        sub, _ = induced_subgraph(g, [0, 1, 2])
        assert sub.xadj.tolist() == [0, 2, 4, 6]
        assert sub.adjncy.tolist() == [1, 2, 0, 2, 0, 1]
        assert sub.adjwgt.tolist() == [2.0, 3.0, 2.0, 5.0, 3.0, 5.0]


class TestRelabel:
    def test_identity(self, grid8):
        assert relabel(grid8, np.arange(grid8.n)) == grid8

    def test_swap_preserves_structure(self, weighted_path):
        g = relabel(weighted_path, [3, 2, 1, 0])
        assert g.edge_weight(3, 2) == 5.0
        assert g.edge_weight(1, 0) == 5.0
        assert g.edge_weight(2, 1) == 1.0

    def test_non_permutation_rejected(self, triangle):
        with pytest.raises(ValueError):
            relabel(triangle, [0, 0, 1])

    @given(random_graphs(max_n=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_relabel_roundtrip(self, g, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(g.n)
        inv = np.empty(g.n, dtype=np.int64)
        inv[perm] = np.arange(g.n)
        assert relabel(relabel(g, perm), inv) == g

    @given(random_graphs(max_n=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_relabel_preserves_counts(self, g, seed):
        rng = np.random.default_rng(seed)
        g2 = relabel(g, rng.permutation(g.n))
        assert g2.n == g.n and g2.m == g.m
        assert np.isclose(g2.total_edge_weight(), g.total_edge_weight())
        assert np.isclose(g2.total_node_weight(), g.total_node_weight())


class TestSubgraphProperties:
    @given(random_graphs(max_n=16), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_subgraph_is_valid_graph(self, g, seed):
        rng = np.random.default_rng(seed)
        if g.n == 0:
            return
        nodes = rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False)
        sub, _ = induced_subgraph(g, nodes)
        sub._check_structure()
        sub.check_symmetry()

    @given(random_graphs(max_n=16))
    @settings(max_examples=20, deadline=None)
    def test_full_selection_is_identity(self, g):
        sub, smap = induced_subgraph(g, range(g.n))
        assert sub == g
        assert np.array_equal(smap.to_parent, np.arange(g.n))

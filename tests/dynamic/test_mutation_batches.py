"""Property suite for :mod:`repro.graph.dynamic`.

The load-bearing properties:

* **exact inverse** — applying a batch with ``record_inverse=True`` and
  then applying the returned inverse restores the graph *bit-identically*
  (CSR arrays, weights, coords, content signature);
* **dirty exactness** — ``dirty_nodes`` is exactly the set of vertices a
  reference replay of the batch touches (no over- or under-reporting),
  which the incremental repartitioner relies on to bound its band;
* **strict semantics** — every contract violation raises
  :class:`MutationError` (silent upserts would make inverses ambiguous);
* **JSONL round-trip** — streams survive serialisation unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, from_edge_list, validate_graph
from repro.graph.dynamic import (
    DynamicGraph,
    MutationBatch,
    MutationError,
    VertexAdd,
    generate_mutation_stream,
    random_mutation_batch,
    read_mutation_stream,
    write_mutation_stream,
)

from ..conftest import random_graphs


def _snapshot(g: Graph):
    return (g.n, g.m, g.xadj.copy(), g.adjncy.copy(), g.adjwgt.copy(),
            g.vwgt.copy(),
            None if g.coords is None else g.coords.copy(),
            g.signature())


def _assert_identical(snap, g: Graph):
    n, m, xadj, adjncy, adjwgt, vwgt, coords, sig = snap
    assert g.n == n and g.m == m
    assert np.array_equal(g.xadj, xadj)
    assert np.array_equal(g.adjncy, adjncy)
    assert np.array_equal(g.adjwgt, adjwgt)
    assert np.array_equal(g.vwgt, vwgt)
    if coords is None:
        assert g.coords is None
    else:
        assert np.array_equal(g.coords, coords)
    assert g.signature() == sig


def _reference_dirty(dyn_before_edges, n_before, active_before, batch):
    """Independent replay of the batch phases over plain dicts, returning
    (dirty set, n_after) — the oracle ``apply`` is checked against."""
    edges = dict(dyn_before_edges)
    active = list(active_before)
    dirty = set()
    added, removed = [], []
    for add in batch.add_vertices:
        if add.vid is None or add.vid == len(active):
            vid = len(active)
            active.append(True)
        else:
            vid = add.vid
            active[vid] = True
        added.append(vid)
        dirty.add(vid)
    for u, v, w in batch.insert_edges:
        key = (min(u, v), max(u, v))
        edges[key] = w
        dirty.update(key)
    for u, v in batch.delete_edges:
        key = (min(u, v), max(u, v))
        del edges[key]
        dirty.update(key)
    for u, v, w in batch.edge_weights:
        dirty.update((min(u, v), max(u, v)))
    for v, w in batch.vertex_weights:
        dirty.add(v)
    for v in batch.remove_vertices:
        for key in [k for k in edges if v in k]:
            del edges[key]
            dirty.update(key)
        active[v] = False
        removed.append(v)
    poppable = set(added) | set(removed)
    while active and not active[-1] and (len(active) - 1) in poppable:
        vid = len(active) - 1
        active.pop()
        dirty.discard(vid)
        poppable.discard(vid)
    return {d for d in dirty if d < len(active)}, len(active)


class TestInverseRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(g=random_graphs(max_n=20, connected=True),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_single_batch_roundtrip_is_bit_identical(self, g, seed):
        dyn = DynamicGraph(g)
        snap = _snapshot(dyn.graph())
        batch = random_mutation_batch(dyn, np.random.default_rng(seed))
        res = dyn.apply(batch, record_inverse=True)
        assert res.inverse is not None
        dyn.apply(res.inverse)
        restored = dyn.graph()
        validate_graph(restored)
        _assert_identical(snap, restored)

    @settings(max_examples=15, deadline=None)
    @given(g=random_graphs(max_n=16, connected=True),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_multi_batch_unwind(self, g, seed):
        dyn = DynamicGraph(g)
        rng = np.random.default_rng(seed)
        snaps = [_snapshot(dyn.graph())]
        inverses = []
        for _ in range(3):
            batch = random_mutation_batch(dyn, rng)
            inverses.append(dyn.apply(batch, record_inverse=True).inverse)
            snaps.append(_snapshot(dyn.graph()))
        for inv, snap in zip(reversed(inverses), reversed(snaps[:-1])):
            dyn.apply(inv)
            _assert_identical(snap, dyn.graph())

    def test_insert_then_remove_same_vertex_composes(self):
        # intra-batch composition: the inverse is a state diff, so a
        # vertex added and removed in one batch needs no inverse ops
        g = from_edge_list(3, [(0, 1), (1, 2)])
        dyn = DynamicGraph(g)
        snap = _snapshot(dyn.graph())
        batch = MutationBatch(
            add_vertices=[VertexAdd(weight=2.0)],
            insert_edges=[(3, 0, 1.0)],
            remove_vertices=[3],
        )
        res = dyn.apply(batch, record_inverse=True)
        assert dyn.n == 3  # trailing pop restored n
        assert res.inverse.is_empty()
        _assert_identical(snap, dyn.graph())

    def test_remove_restores_incident_edges_and_weight(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)],
                           weights=[5.0, 7.0, 9.0], vwgt=[1, 2, 3, 4])
        dyn = DynamicGraph(g)
        snap = _snapshot(dyn.graph())
        res = dyn.apply(MutationBatch(remove_vertices=[1]),
                        record_inverse=True)
        assert not dyn.is_active(1)
        assert dyn.m == 1  # only (2,3) left
        dyn.apply(res.inverse)
        _assert_identical(snap, dyn.graph())


class TestDirtyNodes:
    @settings(max_examples=40, deadline=None)
    @given(g=random_graphs(max_n=20, connected=True),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_dirty_matches_reference_replay(self, g, seed):
        dyn = DynamicGraph(g)
        batch = random_mutation_batch(dyn, np.random.default_rng(seed))
        expected, n_after = _reference_dirty(
            dict(dyn._edges), dyn.n, list(dyn._active), batch)
        res = dyn.apply(batch)
        assert dyn.n == n_after
        assert set(res.dirty_nodes.tolist()) == expected
        # sorted unique, in range
        assert np.array_equal(res.dirty_nodes,
                              np.unique(res.dirty_nodes))
        if len(res.dirty_nodes):
            assert 0 <= res.dirty_nodes.min()
            assert res.dirty_nodes.max() < dyn.n

    def test_edge_ops_dirty_exact_endpoints(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        dyn = DynamicGraph(g)
        res = dyn.apply(MutationBatch(insert_edges=[(0, 2, 1.0)],
                                      delete_edges=[(3, 4)],
                                      edge_weights=[(1, 2, 4.0)]))
        assert res.dirty_nodes.tolist() == [0, 1, 2, 3, 4]
        res = dyn.apply(MutationBatch(vertex_weights=[(3, 2.0)]))
        assert res.dirty_nodes.tolist() == [3]

    def test_removal_dirties_former_neighbors(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
        dyn = DynamicGraph(g)
        res = dyn.apply(MutationBatch(remove_vertices=[1]))
        # 1's former neighbours must be dirty: their boundary changed
        assert res.dirty_nodes.tolist() == [0, 1, 2, 3]


class TestVertexLifecycle:
    def test_append_then_remove_restores_n(self):
        dyn = DynamicGraph(from_edge_list(2, [(0, 1)]))
        dyn.apply(MutationBatch(add_vertices=[VertexAdd()],
                                insert_edges=[(2, 0, 1.0)]))
        assert (dyn.n, dyn.m) == (3, 2)
        dyn.apply(MutationBatch(remove_vertices=[2]))
        assert (dyn.n, dyn.m) == (2, 1)

    def test_interior_tombstone_keeps_ids_stable(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        dyn = DynamicGraph(g)
        dyn.apply(MutationBatch(remove_vertices=[1]))
        assert dyn.n == 4  # interior slot is tombstoned, not popped
        g2 = dyn.graph()
        assert g2.n == 4 and g2.vwgt[1] == 0.0
        assert g2.degrees()[1] == 0

    def test_reactivate_tombstone(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        dyn = DynamicGraph(g)
        dyn.apply(MutationBatch(remove_vertices=[1]))
        res = dyn.apply(MutationBatch(
            add_vertices=[VertexAdd(weight=5.0, vid=1)],
            insert_edges=[(0, 1, 2.0)]))
        assert dyn.is_active(1)
        assert dyn.graph().vwgt[1] == 5.0
        assert set(res.dirty_nodes.tolist()) == {0, 1}

    def test_explicit_append_vid_must_be_next(self):
        dyn = DynamicGraph(from_edge_list(2, [(0, 1)]))
        dyn.apply(MutationBatch(add_vertices=[VertexAdd(vid=2)]))
        assert dyn.n == 3
        with pytest.raises(MutationError, match="neither a tombstone"):
            dyn.apply(MutationBatch(add_vertices=[VertexAdd(vid=7)]))


class TestStrictSemantics:
    @pytest.fixture
    def dyn(self):
        return DynamicGraph(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))

    def test_self_loop_rejected(self, dyn):
        with pytest.raises(MutationError, match="self-loop"):
            dyn.apply(MutationBatch(insert_edges=[(1, 1, 1.0)]))

    def test_duplicate_insert_rejected(self, dyn):
        with pytest.raises(MutationError, match="already exists"):
            dyn.apply(MutationBatch(insert_edges=[(0, 1, 1.0)]))

    def test_delete_missing_edge_rejected(self, dyn):
        with pytest.raises(MutationError, match="no edge"):
            dyn.apply(MutationBatch(delete_edges=[(0, 3)]))

    def test_reweight_missing_edge_rejected(self, dyn):
        with pytest.raises(MutationError, match="no edge"):
            dyn.apply(MutationBatch(edge_weights=[(0, 2, 2.0)]))

    def test_nonpositive_edge_weight_rejected(self, dyn):
        with pytest.raises(MutationError, match="positive"):
            dyn.apply(MutationBatch(insert_edges=[(0, 2, 0.0)]))
        with pytest.raises(MutationError, match="positive"):
            dyn.apply(MutationBatch(edge_weights=[(0, 1, -1.0)]))

    def test_negative_vertex_weight_rejected(self, dyn):
        with pytest.raises(MutationError, match="non-negative"):
            dyn.apply(MutationBatch(vertex_weights=[(0, -1.0)]))
        with pytest.raises(MutationError, match="non-negative"):
            dyn.apply(MutationBatch(add_vertices=[VertexAdd(weight=-2.0)]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_weights_rejected(self, dyn, bad):
        # NaN compares False against every bound, so a plain sign check
        # let it (and +inf) into the graph
        before = dyn.graph()
        for batch in (MutationBatch(insert_edges=[(0, 2, bad)]),
                      MutationBatch(edge_weights=[(0, 1, bad)]),
                      MutationBatch(vertex_weights=[(0, bad)]),
                      MutationBatch(add_vertices=[VertexAdd(weight=bad)])):
            with pytest.raises(MutationError, match="finite"):
                dyn.apply(batch)
        after = dyn.graph()
        assert after.n == before.n and after.m == before.m
        assert np.array_equal(after.adjwgt, before.adjwgt)
        assert np.array_equal(after.vwgt, before.vwgt)

    def test_ops_on_removed_vertex_rejected(self, dyn):
        dyn.apply(MutationBatch(remove_vertices=[1]))
        with pytest.raises(MutationError, match="removed"):
            dyn.apply(MutationBatch(insert_edges=[(0, 1, 1.0)]))
        with pytest.raises(MutationError, match="removed"):
            dyn.apply(MutationBatch(vertex_weights=[(1, 2.0)]))
        with pytest.raises(MutationError, match="removed"):
            dyn.apply(MutationBatch(remove_vertices=[1]))

    def test_add_existing_vertex_rejected(self, dyn):
        with pytest.raises(MutationError, match="already"):
            dyn.apply(MutationBatch(add_vertices=[VertexAdd(vid=2)]))

    def test_out_of_range_vertex_rejected(self, dyn):
        with pytest.raises(MutationError, match="out of range"):
            dyn.apply(MutationBatch(vertex_weights=[(9, 1.0)]))


class TestSerialization:
    @settings(max_examples=25, deadline=None)
    @given(g=random_graphs(max_n=16, connected=True),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_json_roundtrip_preserves_application(self, g, seed):
        dyn_a = DynamicGraph(g)
        dyn_b = DynamicGraph(g)
        batch = random_mutation_batch(dyn_a, np.random.default_rng(seed))
        clone = MutationBatch.from_json(batch.to_json())
        dyn_a.apply(batch)
        dyn_b.apply(clone)
        assert dyn_a.graph().signature() == dyn_b.graph().signature()

    def test_unknown_op_rejected(self):
        with pytest.raises(MutationError, match="unknown mutation op"):
            MutationBatch.from_json({"upsert_edges": [[0, 1, 2.0]]})

    def test_stream_file_roundtrip(self, tmp_path, delaunay100):
        stream = generate_mutation_stream(delaunay100, 4, seed=9)
        path = str(tmp_path / "stream.jsonl")
        assert write_mutation_stream(stream, path) == 4
        back = read_mutation_stream(path)
        assert len(back) == 4
        dyn_a, dyn_b = DynamicGraph(delaunay100), DynamicGraph(delaunay100)
        for ba, bb in zip(stream, back):
            dyn_a.apply(ba)
            dyn_b.apply(bb)
        assert dyn_a.graph().signature() == dyn_b.graph().signature()

    def test_stream_reader_blank_lines_and_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"insert_edges": [[0, 1, 2.0]]}\n\nnot json\n')
        with pytest.raises(MutationError, match=r"bad\.jsonl:3"):
            read_mutation_stream(str(path))
        path.write_text('{"insert_edges": [[0, 1, 2.0]]}\n\n'
                        '{"vertex_weights": [[0, 3.0]]}\n')
        assert len(read_mutation_stream(str(path))) == 2


class TestLazyRebuild:
    def test_graph_cached_until_next_apply(self, delaunay100):
        dyn = DynamicGraph(delaunay100)
        assert dyn.graph() is delaunay100  # base reused before mutations
        dyn.apply(MutationBatch(vertex_weights=[(0, 3.0)]))
        g1 = dyn.graph()
        assert g1 is not delaunay100
        assert dyn.graph() is g1  # cached
        dyn.apply(MutationBatch(vertex_weights=[(0, 1.0)]))
        assert dyn.graph() is not g1

    def test_rebuilt_csr_is_valid_and_matches_state(self, delaunay100):
        dyn = DynamicGraph(delaunay100)
        stream = generate_mutation_stream(delaunay100, 3, seed=4)
        for batch in stream:
            dyn.apply(batch)
        g = dyn.graph()
        validate_graph(g)
        assert g.n == dyn.n and g.m == dyn.m
        # every live edge appears with its weight, both directions
        for (u, v), w in dyn._edges.items():
            assert g.has_edge(u, v)
        assert float(g.adjwgt.sum()) / 2.0 == pytest.approx(
            sum(dyn._edges.values()))

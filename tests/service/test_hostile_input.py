"""Malformed and oversized requests: a clean 400, and the server keeps
serving.

Generator specs are checked against fixed size bounds before any
generator runs (the handler thread resolves them before admission
control), and a malformed PATCH batch is a client error, not a dropped
connection.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dynamic import MutationBatch, MutationError
from repro.service import PartitionRequest, ServiceClient, create_server
from repro.service.graphspec import (
    GENERATORS,
    MAX_EDGES,
    MAX_NODES,
    GraphSpecError,
    resolve_graph,
)


@pytest.fixture()
def server():
    srv = create_server(port=0, workers=1, queue_limit=8)
    srv.start_background()
    yield srv
    srv.drain_and_shutdown(timeout=30.0)


def _send(url: str, method: str, doc: dict):
    body = json.dumps(doc).encode()
    req = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json",
                 "Content-Length": str(len(body))})
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _assert_healthy(server):
    with urllib.request.urlopen(server.url + "/healthz",
                                timeout=30.0) as resp:
        assert resp.status == 200
        assert json.loads(resp.read())["status"] == "ok"


@pytest.mark.parametrize("generator,k", [
    ({"family": "rmat", "params": {"scale": -1}}, 2),
    ({"family": "grid", "params": {"rows": 0, "cols": 3}}, 2),
    ({"family": "rgg", "params": {"n": 1_000_000_000}}, 2),
    ({"family": "rgg", "params": {"n": 5}}, 8),
], ids=["negative-scale", "zero-rows", "huge-n", "k-above-n"])
def test_bad_generator_spec_400_and_server_keeps_serving(server, generator,
                                                         k):
    status, doc = _send(server.url + "/v1/partition", "POST",
                        {"k": k, "graph": {"generator": generator}})
    assert status == 400, doc
    assert isinstance(doc.get("error"), str) and doc["error"]
    _assert_healthy(server)


def test_malformed_patch_400_and_server_keeps_serving(server):
    client = ServiceClient(server.url, tenant="tests")
    init = client.create_session(
        PartitionRequest(k=2, seed=3),
        graph_spec={"generator": {"family": "rgg", "params": {"n": 200}}})
    status, doc = _send(f"{server.url}/v1/sessions/{init['session']}",
                        "PATCH", {"add_vertices": [5]})
    assert status == 400, doc
    assert "mutation" in doc["error"]
    _assert_healthy(server)


# ---------------------------------------------------------------------------
# property tests: nothing but the module's own error type escapes
# ---------------------------------------------------------------------------

# small sizes (cheap to build) and sizes past every bound (rejected
# before anything is built); a value in between would build a graph of
# up to MAX_NODES nodes, which is legal but too slow for a unit test
_SIZES = st.one_of(st.integers(-3, 12), st.integers(MAX_NODES + 1, 2**80))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _SIZES,
    st.floats(-20, 20),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e30, -1e30]),
    _SIZES.map(str), st.text(max_size=4))
_PARAM_VALUES = st.one_of(
    _JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=2),
    st.dictionaries(st.text(max_size=2), _JSON_SCALARS, max_size=2))


@st.composite
def generator_specs(draw):
    family = draw(st.one_of(st.sampled_from(sorted(GENERATORS)),
                            st.text(max_size=4), _JSON_SCALARS,
                            st.lists(st.text(max_size=2), max_size=2)))
    known = (sorted(GENERATORS[family][1])
             if isinstance(family, str) and family in GENERATORS else [])
    names = st.one_of(st.sampled_from(known), st.text(max_size=3)) \
        if known else st.text(max_size=3)
    params = draw(st.one_of(
        st.dictionaries(names, _PARAM_VALUES, max_size=4),
        _JSON_SCALARS))
    return {"generator": {"family": family, "params": params}}


@given(spec=generator_specs())
@settings(max_examples=300, deadline=None)
def test_resolve_graph_returns_bounded_graph_or_spec_error(spec):
    try:
        g, _ = resolve_graph(spec)
    except GraphSpecError:
        return
    assert 1 <= g.n <= MAX_NODES
    assert g.m <= MAX_EDGES


_OPS = ("add_vertices", "insert_edges", "delete_edges", "edge_weights",
        "vertex_weights", "remove_vertices")
_MUTATION_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=3))
_MUTATION_JSON = st.recursive(
    _MUTATION_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.one_of(st.sampled_from(["weight", "v", "coords"]),
                      st.text(max_size=3)),
            inner, max_size=3)),
    max_leaves=12)


@given(doc=st.dictionaries(
    st.one_of(st.sampled_from(_OPS), st.text(max_size=4)),
    _MUTATION_JSON, max_size=4))
@settings(max_examples=300, deadline=None)
def test_mutation_batch_from_json_returns_batch_or_mutation_error(doc):
    try:
        batch = MutationBatch.from_json(doc)
    except MutationError:
        return
    assert isinstance(batch, MutationBatch)
    # whatever parses must round-trip through the wire form
    assert MutationBatch.from_json(batch.to_json()) == batch

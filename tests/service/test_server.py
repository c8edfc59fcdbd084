"""The HTTP service end to end: endpoints, admission, concurrency,
session PATCH equivalence, graceful shutdown."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.incremental import IncrementalSession
from repro.graph.dynamic import DynamicGraph, MutationBatch
from repro.service import (
    PartitionRequest,
    QuotaManager,
    ServiceClient,
    ServiceError,
    create_server,
    execute_request,
)
from repro.service.graphspec import resolve_graph

SPEC = {"generator": {"family": "rgg", "params": {"n": 300, "seed": 1}}}


@pytest.fixture()
def server():
    srv = create_server(port=0, workers=2, queue_limit=8)
    srv.start_background()
    yield srv
    srv.drain_and_shutdown(timeout=30.0)


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, tenant="tests")


def _raw(url: str, method: str = "GET", body: bytes = None,
         headers: dict = None):
    req = urllib.request.Request(url, data=body, method=method,
                                 headers=headers or {})
    return urllib.request.urlopen(req, timeout=30.0)


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------

def test_submit_status_result_roundtrip(client):
    req = PartitionRequest(k=4, seed=3)
    job = client.submit(req, graph_spec=SPEC)
    assert job["state"] in ("queued", "running", "done")
    status = client.wait(job["job"])
    assert status["state"] == "done"
    res = client.result(status["job"])
    g, _ = resolve_graph(SPEC)
    direct = execute_request(g, req)
    assert (res.part == direct.part).all()
    assert res.cut == direct.cut and res.feasible == direct.feasible


def test_jobs_listing(client):
    client.partition(PartitionRequest(k=2, seed=4), graph_spec=SPEC)
    jobs = client.jobs()
    assert len(jobs) >= 1
    assert all("state" in j and "job" in j for j in jobs)


def test_healthz(client):
    doc = client.health()
    assert doc["status"] == "ok" and "queue_depth" in doc


def test_metrics_exposition(client):
    client.partition(PartitionRequest(k=2, seed=5), graph_spec=SPEC)
    text = client.metrics_text()
    # queue depth, cache ratio inputs and endpoint latency histograms
    # must all be exposed
    assert "repro_queue_depth" in text
    assert "repro_cache_hits" in text
    assert "repro_cache_misses" in text
    assert "repro_jobs_executed" in text
    assert "repro_http_submit_latency_seconds_bucket" in text
    assert "repro_http_job_status_latency_seconds_count" in text


def test_handler_histograms_count_one_post(server, client):
    """One POST resolves one graph and encodes one response."""
    names = ("graph_resolve_seconds_count", "response_encode_seconds_count")
    before = server.registry.scalars()
    client.submit(PartitionRequest(k=2, seed=6), graph_spec=SPEC)
    after = server.registry.scalars()
    for name in names:
        assert after[name] - before[name] == 1, name


def test_request_id_echoed_and_stamped(server):
    """A client-supplied X-Repro-Request-Id comes back on the response
    and lands in the job status; without one the server generates an
    id, fresh per request even over one keep-alive connection."""
    body = json.dumps({"k": 2, "seed": 6, "graph": SPEC}).encode()
    resp = _raw(server.url + "/v1/partition", method="POST", body=body,
                headers={"Content-Type": "application/json",
                         "X-Repro-Request-Id": "corr-abc"})
    assert resp.headers.get("X-Repro-Request-Id") == "corr-abc"
    doc = json.loads(resp.read())
    assert doc["request_id"] == "corr-abc"
    # the id sticks to the job for later status polls
    status = _raw(server.url + f"/v1/jobs/{doc['job']}")
    assert json.loads(status.read())["request_id"] == "corr-abc"


def test_request_id_generated_when_absent(server):
    r1 = _raw(server.url + "/healthz")
    r2 = _raw(server.url + "/healthz")
    id1 = r1.headers.get("X-Repro-Request-Id")
    id2 = r2.headers.get("X-Repro-Request-Id")
    assert id1 and id1.startswith("req-")
    assert id2 and id2 != id1  # never reused across requests


def test_unknown_routes_and_ids_404(server, client):
    for path in ("/v1/jobs/job-missing", "/v1/jobs/job-missing/result",
                 "/v1/sessions/sess-missing", "/nope"):
        with pytest.raises(ServiceError) as err:
            ServiceClient(server.url)._request("GET", path)
        assert err.value.status == 404


def test_malformed_body_400(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _raw(server.url + "/v1/partition", method="POST",
             body=b"{not json", headers={"Content-Length": "9"})
    assert err.value.code == 400


def test_missing_graph_400(client):
    with pytest.raises(ServiceError) as err:
        client._request("POST", "/v1/partition", {"k": 4})
    assert err.value.status == 400


def test_bad_option_400(client):
    with pytest.raises(ServiceError) as err:
        client._request("POST", "/v1/partition",
                        {"k": 4, "graph": SPEC, "epsilon": -9.0})
    assert err.value.status == 400


def test_header_only_metis_upload_400(client):
    # regression: a 10-byte header claiming two million nodes used to
    # be padded out to a full graph before any check
    with pytest.raises(ServiceError) as err:
        client._request("POST", "/v1/partition",
                        {"k": 4, "graph": {"metis": "2000000 0\n"}})
    assert err.value.status == 400
    assert "expected 2000000 node lines" in str(err.value)


def test_result_before_done_409(server):
    # fill the single-file worker with a slow job, then poll the queued
    # one: its result endpoint must answer 409 + Retry-After, not block
    srv = create_server(port=0, workers=1, queue_limit=8)
    srv.start_background()
    try:
        client = ServiceClient(srv.url)
        big = {"generator": {"family": "rgg", "params": {"n": 4000,
                                                         "seed": 2}}}
        first = client.submit(PartitionRequest(k=8), graph_spec=big)
        second = client.submit(PartitionRequest(k=4, seed=6),
                               graph_spec=SPEC)
        if second["state"] != "done":
            with pytest.raises(ServiceError) as err:
                client.result(second["job"])
            assert err.value.status == 409
            assert err.value.retry_after_s is not None
        client.wait(first["job"])
        client.wait(second["job"])
    finally:
        srv.drain_and_shutdown(timeout=30.0)


def test_oversized_request_413():
    srv = create_server(port=0, workers=1, max_request_bytes=1024)
    srv.start_background()
    try:
        body = json.dumps({"k": 4, "graph": {"metis": "x" * 4096}}) \
            .encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            _raw(srv.url + "/v1/partition", method="POST", body=body)
        assert err.value.code == 413
    finally:
        srv.drain_and_shutdown(timeout=30.0)


def test_quota_429_with_retry_after_leaves_inflight_alone():
    quota_clock = [0.0]
    srv = create_server(port=0, workers=1, queue_limit=8,
                        rate=1.0, burst=2.0,
                        clock=lambda: quota_clock[0])
    srv.start_background()
    try:
        client = ServiceClient(srv.url, tenant="greedy")
        first = client.submit(PartitionRequest(k=4, seed=7),
                              graph_spec=SPEC)
        second = client.submit(PartitionRequest(k=4, seed=8),
                               graph_spec=SPEC)
        # burst exhausted, clock frozen: the third request must get 429
        with pytest.raises(ServiceError) as err:
            client.submit(PartitionRequest(k=4, seed=9), graph_spec=SPEC)
        assert err.value.status == 429
        assert err.value.retry_after_s is not None
        # another tenant is unaffected
        other = ServiceClient(srv.url, tenant="patient")
        third = other.submit(PartitionRequest(k=4, seed=10),
                             graph_spec=SPEC)
        # and the in-flight jobs of the throttled tenant still finish
        for job in (first, second, third):
            assert client.wait(job["job"])["state"] == "done"
        assert "repro_quota_rejections 1" in client.metrics_text()
    finally:
        srv.drain_and_shutdown(timeout=30.0)


def test_metis_upload_roundtrip(client, rgg128):
    res = client.partition(PartitionRequest(k=4, seed=11), graph=rgg128)
    # the METIS wire format drops coords, so compare against the library
    # running on exactly what crossed the wire
    from repro.service.graphspec import graph_to_spec

    uploaded, _ = resolve_graph(graph_to_spec(rgg128))
    direct = execute_request(uploaded, PartitionRequest(k=4, seed=11))
    assert (res.part == direct.part).all()
    assert res.n == rgg128.n and res.m == rgg128.m


# ---------------------------------------------------------------------------
# cache behaviour over the wire
# ---------------------------------------------------------------------------

def test_cache_hit_determinism_and_skip(client, server):
    req = PartitionRequest(k=4, seed=12)
    first = client.partition(req, graph_spec=SPEC)
    assert not first.cached
    executed = server.registry.scalars()["jobs_executed"]
    for _ in range(3):
        hit = client.partition(req, graph_spec=SPEC)
        assert hit.cached
        assert (hit.part == first.part).all() and hit.cut == first.cut
    scalars = server.registry.scalars()
    assert scalars["jobs_executed"] == executed  # hits ran no partition
    assert scalars["jobs_cache_hits"] >= 3


def test_option_change_misses_cache(client):
    a = client.partition(PartitionRequest(k=4, seed=13), graph_spec=SPEC)
    b = client.partition(PartitionRequest(k=4, seed=14), graph_spec=SPEC)
    assert not b.cached  # different seed -> different identity
    assert a.cache_key != b.cache_key


# ---------------------------------------------------------------------------
# concurrency: service results == direct library results, bit for bit
# ---------------------------------------------------------------------------

def test_concurrent_requests_bit_identical(server):
    client = ServiceClient(server.url)
    seeds = list(range(8))
    expected = {}
    for seed in seeds:
        g, _ = resolve_graph(SPEC)
        expected[seed] = execute_request(
            g, PartitionRequest(k=4, seed=seed)).part
    failures = []

    def work(seed: int) -> None:
        try:
            res = client.partition(PartitionRequest(k=4, seed=seed),
                                   graph_spec=SPEC)
            if not (res.part == expected[seed]).all():
                failures.append(f"seed {seed}: diverged")
        except Exception as exc:  # pragma: no cover - failure detail
            failures.append(f"seed {seed}: {exc}")

    threads = [threading.Thread(target=work, args=(seed,))
               for seed in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not failures, failures


# ---------------------------------------------------------------------------
# sessions: PATCH equivalence (the satellite regression test)
# ---------------------------------------------------------------------------

BATCH_1 = {"insert_edges": [[0, 9, 2.0], [20, 40, 1.0]]}
BATCH_2 = {"delete_edges": [[0, 9]], "vertex_weights": [[3, 4.0]]}


def test_two_sequential_patches_equal_one_shot_replay(client):
    """Two PATCH batches through the service == replaying the same two
    batches through one IncrementalSession directly, bit for bit."""
    req = PartitionRequest(k=4, seed=21)
    init = client.create_session(req, graph_spec=SPEC)
    assert init["state"] == "done"
    sid = init["session"]
    r1 = client.patch(sid, BATCH_1)
    r2 = client.patch(sid, BATCH_2)

    g, _ = resolve_graph(SPEC)
    dyn = DynamicGraph(g)
    inc = IncrementalSession.start(
        dyn.graph(), 4, config=req.config().derive(incremental=True),
        seed=21)
    results = []
    for doc in (BATCH_1, BATCH_2):
        br = dyn.apply(MutationBatch.from_json(dict(doc)))
        results.append(inc.apply(dyn.graph(), br.dirty_nodes))

    assert (r1.part == results[0].partition.part).all()
    assert (r2.part == results[1].partition.part).all()
    assert r2.cut == results[1].cut
    status = client.session_status(sid)
    assert status["patches_applied"] == 2 and status["ready"]


def test_patch_ordering_under_concurrent_submission(server):
    """PATCHes submitted in order from one client apply in that order
    even with more workers than sessions."""
    client = ServiceClient(server.url)
    req = PartitionRequest(k=4, seed=22)
    init = client.create_session(req, graph_spec=SPEC)
    sid = init["session"]
    batches = [{"insert_edges": [[i, i + 50, 1.0]]} for i in range(5)]
    # submit all PATCHes without waiting, then wait in order
    jobs = [client._request("PATCH", f"/v1/sessions/{sid}", b)
            for b in batches]
    parts = []
    for job in jobs:
        status = client.wait(job["job"])
        assert status["state"] == "done"
        parts.append(client.result(job["job"]).part)

    g, _ = resolve_graph(SPEC)
    dyn = DynamicGraph(g)
    inc = IncrementalSession.start(
        dyn.graph(), 4, config=req.config().derive(incremental=True),
        seed=22)
    for doc, got in zip(batches, parts):
        br = dyn.apply(MutationBatch.from_json(dict(doc)))
        want = inc.apply(dyn.graph(), br.dirty_nodes).partition.part
        assert (got == want).all()


def test_patch_bad_batch_400(client):
    init = client.create_session(PartitionRequest(k=2, seed=23),
                                 graph_spec=SPEC)
    with pytest.raises(ServiceError) as err:
        client.patch(init["session"], {"bogus_op": []})
    assert err.value.status == 400


def test_patch_unknown_session_404(client):
    with pytest.raises(ServiceError) as err:
        client.patch("sess-missing", BATCH_1)
    assert err.value.status == 404


# ---------------------------------------------------------------------------
# graceful shutdown
# ---------------------------------------------------------------------------

def test_graceful_shutdown_mid_job():
    srv = create_server(port=0, workers=1, queue_limit=8)
    srv.start_background()
    client = ServiceClient(srv.url)
    big = {"generator": {"family": "rgg", "params": {"n": 6000,
                                                     "seed": 3}}}
    job = client.submit(PartitionRequest(k=8, seed=24), graph_spec=big)
    # drain while the job runs: it must finish, new submits must 503
    t0 = time.perf_counter()
    drained = srv.drain_and_shutdown(timeout=60.0)
    assert drained, "drain timed out with a job in flight"
    manager_job = srv.manager.job(job["job"])
    assert manager_job.state == "done"
    assert manager_job.result is not None
    # post-drain submissions are refused at the manager level
    from repro.service.jobs import Draining

    g, _ = resolve_graph(SPEC)
    with pytest.raises(Draining):
        srv.manager.submit_partition(g, PartitionRequest(k=2, seed=25))
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# a repeated generator spec builds no graph
# ---------------------------------------------------------------------------

def _resolves(server) -> float:
    return server.registry.scalars()["graph_resolve_seconds_count"]


def test_generators_are_deterministic():
    """The spec memo rests on this: a generator spec names one graph."""
    from repro.service.graphspec import GENERATORS

    small = {"rgg": {"n": 200}, "delaunay": {"n": 200},
             "grid": {"rows": 10, "cols": 12},
             "grid3d": {"nx": 5, "ny": 6, "nz": 4},
             "road": {"n": 200, "n_cities": 4},
             "social": {"n": 200, "m_per_node": 3},
             "rmat": {"scale": 7, "edge_factor": 4}}
    assert set(small) == set(GENERATORS)
    for family, params in small.items():
        spec = {"generator": {"family": family, "params": params}}
        g1, d1 = resolve_graph(spec)
        g2, d2 = resolve_graph(spec)
        assert d1 == d2
        assert g1.compute_signature() == g2.compute_signature(), family


def test_repeated_spec_hit_builds_no_graph(server, client):
    req = PartitionRequest(k=4, seed=31)
    first = client.partition(req, graph_spec=SPEC)
    before = server.registry.scalars()
    hit = client.submit(req, graph_spec=SPEC)
    after = server.registry.scalars()
    assert hit["state"] == "done" and hit["cache_hit"]
    assert hit["detail"] == "rgg(n=300, seed=1)"
    assert after["graph_resolve_seconds_count"] \
        == before["graph_resolve_seconds_count"]
    assert after["cache_hits"] - before["cache_hits"] == 1
    assert after["jobs_executed"] == before["jobs_executed"]
    assert (client.result(hit["job"]).part == first.part).all()


def test_spelled_out_default_hits_the_same_entry(server, client):
    spec = {"generator": {"family": "rgg", "params": {"n": 300}}}
    req = PartitionRequest(k=4, seed=32)
    first = client.partition(req, graph_spec=spec)
    resolves = _resolves(server)
    spelled = {"generator": {"family": "rgg",
                             "params": {"n": "300", "seed": 0}}}
    hit = client.partition(req, graph_spec=spelled)
    assert hit.cached and (hit.part == first.part).all()
    assert _resolves(server) == resolves


def test_other_seed_on_known_spec_builds_and_runs(server, client):
    client.partition(PartitionRequest(k=4, seed=33), graph_spec=SPEC)
    before = server.registry.scalars()
    res = client.partition(PartitionRequest(k=4, seed=34), graph_spec=SPEC)
    after = server.registry.scalars()
    assert not res.cached
    assert after["graph_resolve_seconds_count"] \
        - before["graph_resolve_seconds_count"] == 1
    assert after["jobs_executed"] - before["jobs_executed"] == 1
    assert after["cache_misses"] - before["cache_misses"] == 1


def test_known_spec_with_evicted_result_runs_again():
    # room for one result of this graph: the second evicts the first
    srv = create_server(port=0, workers=1, queue_limit=8, cache_bytes=4000)
    srv.start_background()
    try:
        client = ServiceClient(srv.url)
        req = PartitionRequest(k=4, seed=35)
        client.partition(req, graph_spec=SPEC)
        client.partition(PartitionRequest(k=4, seed=36), graph_spec=SPEC)
        assert srv.registry.scalars()["cache_evictions"] >= 1
        before = srv.registry.scalars()
        again = client.partition(req, graph_spec=SPEC)
        after = srv.registry.scalars()
        assert not again.cached
        assert after["graph_resolve_seconds_count"] \
            - before["graph_resolve_seconds_count"] == 1
        assert after["jobs_executed"] - before["jobs_executed"] == 1
        assert after["cache_misses"] - before["cache_misses"] == 1
        g, _ = resolve_graph(SPEC)
        direct = execute_request(g, req)
        assert (again.part == direct.part).all()
        assert again.cut == direct.cut and again.cache_key == direct.cache_key
    finally:
        srv.drain_and_shutdown(timeout=30.0)


def test_k_above_known_spec_nodes_400(server, client):
    client.partition(PartitionRequest(k=2, seed=37), graph_spec=SPEC)
    resolves = _resolves(server)
    with pytest.raises(ServiceError) as err:
        client.submit(PartitionRequest(k=301, seed=37), graph_spec=SPEC)
    assert err.value.status == 400 and "300 nodes" in err.value.message
    assert _resolves(server) == resolves


# ---------------------------------------------------------------------------
# job waits are long polls
# ---------------------------------------------------------------------------

BIG = {"generator": {"family": "rgg", "params": {"n": 6000, "seed": 4}}}


def _status(url: str, job: str, query: str):
    t0 = time.perf_counter()
    with _raw(f"{url}/v1/jobs/{job}{query}") as resp:
        return json.loads(resp.read()), time.perf_counter() - t0


def test_long_poll_returns_when_the_job_finishes(server, client):
    job = client.submit(PartitionRequest(k=4, seed=38), graph_spec=SPEC)
    assert job["state"] != "done"
    doc, elapsed = _status(server.url, job["job"], "?wait=5")
    assert doc["state"] == "done" and "wall_s" in doc
    assert elapsed < 4.0


def test_long_poll_wait_zero_answers_at_once():
    srv = create_server(port=0, workers=1, queue_limit=8)
    srv.start_background()
    try:
        client = ServiceClient(srv.url)
        job = client.submit(PartitionRequest(k=8, seed=39), graph_spec=BIG)
        doc, elapsed = _status(srv.url, job["job"], "?wait=0")
        assert doc["job"] == job["job"] and elapsed < 1.0
        client.wait(job["job"])
    finally:
        srv.drain_and_shutdown(timeout=60.0)


@pytest.mark.parametrize("query", ["?wait=abc", "?wait=-1", "?wait=nan",
                                   "?wait="])
def test_long_poll_malformed_wait_400(server, client, query):
    job = client.submit(PartitionRequest(k=2, seed=40), graph_spec=SPEC)
    with pytest.raises(urllib.error.HTTPError) as err:
        _status(server.url, job["job"], query)
    assert err.value.code == 400


def test_client_wait_still_times_out():
    srv = create_server(port=0, workers=1, queue_limit=8)
    srv.start_background()
    try:
        client = ServiceClient(srv.url)
        slow = client.submit(PartitionRequest(k=8, seed=41), graph_spec=BIG)
        behind = client.submit(PartitionRequest(k=4, seed=42),
                               graph_spec=SPEC)
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError):
            client.wait(behind["job"], timeout_s=0.2)
        assert time.perf_counter() - t0 < 2.0
        assert client.wait(slow["job"])["state"] == "done"
        assert client.wait(behind["job"])["state"] == "done"
    finally:
        srv.drain_and_shutdown(timeout=60.0)

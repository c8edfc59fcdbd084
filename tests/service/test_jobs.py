"""JobManager behaviour below the HTTP layer."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.generators import random_geometric_graph
from repro.graph import Graph
from repro.observability import MetricsRegistry
from repro.service import jobs as jobs_module
from repro.service.api import PartitionRequest, RequestError, \
    execute_request
from repro.service.jobs import (
    Draining,
    JobManager,
    QueueFull,
    UnknownJob,
    UnknownSession,
)


@pytest.fixture()
def manager():
    mgr = JobManager(workers=2, queue_limit=8)
    yield mgr
    mgr.drain(timeout=30.0)


def test_partition_job_lifecycle(manager, rgg128):
    job = manager.submit_partition(rgg128, PartitionRequest(k=4, seed=1))
    assert job.wait(timeout=30.0)
    assert job.state == "done" and not job.cache_hit
    assert job.result is not None and job.result.part.shape == (rgg128.n,)
    doc = job.status_json()
    assert doc["state"] == "done" and "wall_s" in doc and "cut" in doc


def test_cache_hit_skips_partitioning_entirely(manager, rgg128):
    req = PartitionRequest(k=4, seed=2)
    first = manager.submit_partition(rgg128, req)
    assert first.wait(timeout=30.0) and first.state == "done"
    executed_before = manager.registry.scalars()["jobs_executed"]

    second = manager.submit_partition(rgg128, req)
    # a hit completes synchronously: no queue, no worker, no wait
    assert second.finished and second.cache_hit
    assert (second.result.part == first.result.part).all()
    assert second.result.cached
    scalars = manager.registry.scalars()
    assert scalars["jobs_executed"] == executed_before  # nothing ran
    assert scalars["jobs_cache_hits"] == 1


def test_failed_job_records_error(manager, rgg128):
    # topology 3x5 has 15 leaves but k=4: valid config, fails at run
    # time -> the job must land in "failed" with the error recorded
    bad = PartitionRequest(k=4, seed=0,
                           options={"objective": "mapping",
                                    "topology": "3:5"})
    job = manager.submit_partition(rgg128, bad)
    assert job.wait(timeout=30.0)
    assert job.state == "failed"
    assert "topology" in (job.error or "")
    assert manager.registry.scalars()["jobs_failed"] >= 1


def test_bad_option_rejected_at_submit(manager, rgg128):
    with pytest.raises(RequestError):
        manager.submit_partition(
            rgg128, PartitionRequest(k=4, options={"bogus_option": 1}))


def test_queue_full_raises(rgg128):
    mgr = JobManager(workers=1, queue_limit=1)
    try:
        jobs = []
        with pytest.raises(QueueFull):
            for seed in range(50):  # far beyond 1 worker + 1 queue slot
                jobs.append(mgr.submit_partition(
                    rgg128, PartitionRequest(k=4, seed=seed)))
        assert mgr.registry.scalars()["jobs_rejected_queue_full"] >= 1
    finally:
        mgr.drain(timeout=30.0)


def test_drain_rejects_new_work_but_finishes_inflight(rgg128):
    mgr = JobManager(workers=1, queue_limit=8)
    job = mgr.submit_partition(rgg128, PartitionRequest(k=4, seed=9))
    drainer = threading.Thread(target=mgr.drain, kwargs={"timeout": 30.0})
    drainer.start()
    time.sleep(0.01)  # let the drain flag land
    with pytest.raises(Draining):
        mgr.submit_partition(rgg128, PartitionRequest(k=4, seed=10))
    drainer.join(timeout=30.0)
    assert not drainer.is_alive()
    assert job.finished and job.state == "done"  # in-flight ran to the end


def test_unknown_lookups(manager):
    with pytest.raises(UnknownJob):
        manager.job("job-nope")
    with pytest.raises(UnknownSession):
        manager.session("sess-nope")


def test_job_retention_drops_oldest_finished(rgg128):
    mgr = JobManager(workers=2, queue_limit=8, max_jobs_kept=3)
    try:
        jobs = []
        for seed in range(6):  # sequential: prior jobs finished when
            job = mgr.submit_partition(rgg128,  # the next one registers
                                       PartitionRequest(k=2, seed=seed))
            job.wait(timeout=30.0)
            jobs.append(job)
        assert len(mgr.jobs()) <= 3
        # the newest job is always still queryable
        assert mgr.job(jobs[-1].id) is jobs[-1]
    finally:
        mgr.drain(timeout=30.0)


def test_artifacts_journal_and_trace(tmp_path, rgg128):
    mgr = JobManager(workers=1, queue_limit=8,
                     artifacts_dir=str(tmp_path))
    try:
        job = mgr.submit_partition(rgg128, PartitionRequest(k=4, seed=3))
        assert job.wait(timeout=30.0) and job.state == "done"
    finally:
        mgr.drain(timeout=30.0)
    trace_path = tmp_path / f"{job.id}.trace.json"
    assert trace_path.exists()
    import json

    doc = json.loads(trace_path.read_text())
    assert doc.get("schema", "").startswith("repro.trace")
    journal = (tmp_path / "journal.jsonl").read_text().strip().splitlines()
    rec = json.loads(journal[-1])
    assert rec["job"] == job.id and rec["state"] == "done"


def test_analysis_sidecar_request_id_and_gauges(tmp_path, rgg128):
    """Every observed job gets a critical-path sidecar next to its
    trace; the correlation id flows into artifacts and the journal; the
    /metrics gauges track the analysed run."""
    import json

    mgr = JobManager(workers=1, queue_limit=8,
                     artifacts_dir=str(tmp_path))
    try:
        job = mgr.submit_partition(
            rgg128, PartitionRequest(k=4, seed=3, execution="cluster"),
            request_id="req-corr-1")
        assert job.wait(timeout=30.0) and job.state == "done"
        assert job.request_id == "req-corr-1"
        assert job.status_json()["request_id"] == "req-corr-1"
    finally:
        mgr.drain(timeout=30.0)
    trace = json.loads((tmp_path / f"{job.id}.trace.json").read_text())
    assert trace["schema"] == "repro.trace/3"
    assert trace["meta"]["request_id"] == "req-corr-1"
    assert trace["events"]["records"]  # job ran observed
    analysis = json.loads(
        (tmp_path / f"{job.id}.analysis.json").read_text())
    assert analysis["schema"] == "repro.analysis/1"
    assert analysis["meta"]["job"] == job.id
    assert analysis["meta"]["request_id"] == "req-corr-1"
    assert analysis["critical_path_s"] is not None
    rec = json.loads((tmp_path / "journal.jsonl").read_text()
                     .strip().splitlines()[-1])
    assert rec["request_id"] == "req-corr-1"
    scalars = mgr.registry.scalars()
    assert scalars["critical_path_s"] == \
        pytest.approx(analysis["critical_path_s"])
    assert scalars["wait_fraction"] == \
        pytest.approx(analysis["wait_fraction"])


def test_observe_does_not_fork_cache_key(tmp_path, rgg128):
    """An observed (artifacts) run and a plain run of the same request
    share one cache key — telemetry never changes the partition."""
    req = PartitionRequest(k=4, seed=3)
    observed = JobManager(workers=1, queue_limit=8,
                          artifacts_dir=str(tmp_path))
    plain = JobManager(workers=1, queue_limit=8)
    try:
        j1 = observed.submit_partition(rgg128, req)
        j2 = plain.submit_partition(rgg128, req)
        assert j1.wait(timeout=30.0) and j2.wait(timeout=30.0)
        assert j1.result.cache_key == j2.result.cache_key
        assert (j1.result.part == j2.result.part).all()
        # and the observed manager's own cache hits on resubmission
        j3 = observed.submit_partition(rgg128, req)
        assert j3.cache_hit
    finally:
        observed.drain(timeout=30.0)
        plain.drain(timeout=30.0)


# ---------------------------------------------------------------------------
# scratch jobs run in a forked one-PE process
# ---------------------------------------------------------------------------

def test_scratch_job_runs_outside_the_calling_process(monkeypatch, manager,
                                                      rgg128):
    real = jobs_module.execute_request

    def tagged(*args, **kwargs):
        result = real(*args, **kwargs)
        result.stats["pid"] = float(os.getpid())
        return result

    # the fork inherits the patched module global
    monkeypatch.setattr(jobs_module, "execute_request", tagged)
    job = manager.submit_partition(rgg128, PartitionRequest(k=4, seed=11))
    assert job.wait(timeout=30.0) and job.state == "done"
    assert job.result.stats["pid"] != os.getpid()


def test_dead_child_fails_the_job_and_the_worker_goes_on(monkeypatch,
                                                         rgg128):
    test_pid = os.getpid()
    real = jobs_module.execute_request

    def die(*args, **kwargs):
        if os.getpid() == test_pid:  # never take the test run down
            raise AssertionError("scratch job ran in the calling process")
        os._exit(3)

    mgr = JobManager(workers=1, queue_limit=8)
    try:
        monkeypatch.setattr(jobs_module, "execute_request", die)
        job = mgr.submit_partition(rgg128, PartitionRequest(k=4, seed=12))
        assert job.wait(timeout=30.0)
        assert job.state == "failed"
        assert "exitcode=3" in (job.error or "")
        monkeypatch.setattr(jobs_module, "execute_request", real)
        again = mgr.submit_partition(rgg128, PartitionRequest(k=4, seed=13))
        assert again.wait(timeout=30.0) and again.state == "done"
    finally:
        mgr.drain(timeout=30.0)


def test_process_engine_cluster_job_stays_in_the_worker(manager, rgg128):
    """A cluster run on the process engine forks its own PEs, so the job
    runs it from the worker thread (a server-side option only)."""
    req = PartitionRequest(k=2, seed=14, execution="cluster",
                           options={"engine": "process"})
    job = manager.submit_partition(rgg128, req)
    assert job.wait(timeout=60.0) and job.state == "done"
    assert (job.result.part == execute_request(rgg128, req).part).all()


# ---------------------------------------------------------------------------
# the feasible flag tests every constraint dimension on every path
# ---------------------------------------------------------------------------

def _verdicts(mgr, g, req):
    """``feasible`` of a scratch job, a session start and one PATCH."""
    scratch = mgr.submit_partition(g, req)
    start = mgr.create_session(g, req)
    assert scratch.wait(timeout=60.0) and scratch.state == "done"
    assert start.wait(timeout=60.0) and start.state == "done"
    patch = mgr.submit_patch(start.session_id,
                             {"insert_edges": [[0, g.n - 1, 1.0]]})
    assert patch.wait(timeout=60.0) and patch.state == "done"
    return [job.result.feasible for job in (scratch, start, patch)]


def test_feasible_flag_covers_pinned_overload(manager):
    g = random_geometric_graph(400, seed=1)
    fixed = np.full(g.n, -1, dtype=np.int64)
    fixed[:150] = 0  # 150 of 400 nodes in one of 4 blocks: balance 1.5
    pinned = Graph(g.xadj, g.adjncy, g.adjwgt, g.vwgt, fixed=fixed)
    assert _verdicts(manager, pinned, PartitionRequest(k=4)) == \
        [False, False, False]


def test_feasible_flag_covers_every_constraint_dimension(manager):
    g = random_geometric_graph(400, seed=1)
    vwgts = np.ones((g.n, 2))
    vwgts[:60, 1] = 10.0
    two = Graph(g.xadj, g.adjncy, g.adjwgt, None, vwgts=vwgts)
    # seed 1 balances the first dimension but not the second
    req = PartitionRequest(k=4, seed=1)
    assert _verdicts(manager, two, req) == [False, False, False]


# ---------------------------------------------------------------------------
# a finished state is published last
# ---------------------------------------------------------------------------

class _SnapshotOnFinish(MetricsRegistry):
    """A registry that records every job's status document at the moment
    the manager counts a job completed or failed."""

    def __init__(self) -> None:
        super().__init__()
        self.manager = None
        self.snapshots = []

    def counter(self, name):
        counter = super().counter(name)
        if name not in ("jobs_completed", "jobs_failed") \
                or self.manager is None:
            return counter
        registry = self

        class _Spy:
            def inc(self, value=1.0):
                registry.snapshots.extend(
                    job.status_json() for job in registry.manager.jobs())
                counter.inc(value)

        return _Spy()


def test_finished_state_is_published_after_its_record(rgg128):
    registry = _SnapshotOnFinish()
    mgr = JobManager(workers=1, queue_limit=8, registry=registry)
    registry.manager = mgr
    try:
        done = mgr.submit_partition(rgg128, PartitionRequest(k=4, seed=14))
        failed = mgr.submit_partition(rgg128, PartitionRequest(
            k=4, seed=0, options={"objective": "mapping",
                                  "topology": "3:5"}))
        assert done.wait(timeout=30.0) and failed.wait(timeout=30.0)
        assert (done.state, failed.state) == ("done", "failed")
    finally:
        mgr.drain(timeout=30.0)
    states = {doc["state"] for doc in registry.snapshots}
    assert states & {"done", "failed"}, "no snapshot saw a finished job"
    for doc in registry.snapshots:
        if doc["state"] in ("done", "failed"):
            assert "finished_at" in doc and "wall_s" in doc, doc
        if doc["state"] == "done":
            assert "cut" in doc, doc
        if doc["state"] == "failed":
            assert "error" in doc, doc

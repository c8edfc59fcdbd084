"""The job model: submit → queue → worker pool → result.

A job is one unit of service work — a scratch partition
(:class:`~repro.service.api.PartitionRequest` against an uploaded or
generated graph) or an incremental PATCH against a held
:class:`~repro.graph.dynamic.DynamicGraph` session.  Jobs run on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor`.  A scratch
partition leaves its worker thread for a forked one-PE
:class:`~repro.engine.process.ProcessEngine` run, so the workers'
partitions do not share one GIL; session jobs mutate held state and stay
in the thread.  Admission is decided synchronously at submit time:

* result-cache hit → the job completes immediately, **no worker runs**
  (the "cache hits skip partitioning entirely" guarantee — verified by
  the ``cache_hits`` vs ``jobs_executed`` counters); a generator spec
  whose graph the server has built before is looked up by its
  remembered content signature, so such a hit builds no graph either;
* queue full (``queued >= queue_limit``) → :class:`QueueFull` (503);
* draining after SIGTERM → :class:`Draining` (503) while in-flight
  jobs run to completion.

Session PATCH jobs are serialized *per session* in submission order
(a sequence number claimed at submit, enforced by a condition variable
at execution), so a stream of PATCHes through the service is
bit-identical to replaying the same stream through
:class:`~repro.core.IncrementalSession` directly — the regression
tests pin that equivalence.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.dynamic import DynamicGraph, MutationBatch, MutationError
from ..core import metrics
from ..core.config import KappaConfig
from ..core.incremental import IncrementalSession
from ..engine.process import ProcessEngine
from ..instrument import Tracer
from ..observability import MetricsRegistry, append_journal
from ..refinement.balance import is_feasible
from .api import PartitionRequest, PartitionResult, RequestError, \
    execute_request
from .cache import ResultCache

__all__ = [
    "AdmissionError",
    "QueueFull",
    "Draining",
    "UnknownJob",
    "UnknownSession",
    "Job",
    "SessionHandle",
    "JobManager",
]

JOB_STATES = ("queued", "running", "done", "failed")

#: histogram buckets for job queue-wait and run times (seconds)
_JOB_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


class AdmissionError(RuntimeError):
    """The request was not admitted; ``retry_after_s`` advises when to
    try again (wire layer turns this into 429/503 + Retry-After)."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueFull(AdmissionError):
    """Bounded job queue is at capacity (503)."""


class Draining(AdmissionError):
    """The server is draining after SIGTERM; no new work (503)."""


class UnknownJob(KeyError):
    """No job with that id (404)."""


class UnknownSession(KeyError):
    """No session with that id (404)."""


def _new_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


@dataclass
class Job:
    """One unit of service work and its lifecycle record."""

    id: str
    kind: str                     # "partition" | "session_init" | "patch"
    tenant: str
    request: Dict[str, Any]       # JSON echo of what was asked
    detail: str = ""              # human-readable graph description
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cache_hit: bool = False
    session_id: Optional[str] = None
    #: correlation id (``X-Repro-Request-Id``): client-supplied or
    #: server-generated, echoed in responses and stamped into the
    #: journal and per-job trace/analysis artifacts
    request_id: Optional[str] = None
    error: Optional[str] = None
    result: Optional[PartitionResult] = None
    #: set when every state transition is finished (done/failed)
    _event: threading.Event = field(default_factory=threading.Event,
                                    repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def status_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "job": self.id, "kind": self.kind, "state": self.state,
            "tenant": self.tenant, "cache_hit": self.cache_hit,
            "submitted_at": self.submitted_at, "detail": self.detail,
        }
        if self.session_id is not None:
            doc["session"] = self.session_id
        if self.request_id is not None:
            doc["request_id"] = self.request_id
        if self.started_at is not None:
            doc["started_at"] = self.started_at
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
            doc["wall_s"] = self.finished_at - self.submitted_at
        if self.error is not None:
            doc["error"] = self.error
        if self.result is not None and self.finished:
            doc["cut"] = float(self.result.cut)
        return doc


class SessionHandle:
    """A held graph: ``DynamicGraph`` + ``IncrementalSession`` plus the
    per-session ordering gate (PATCHes apply in submission order)."""

    def __init__(self, session_id: str, graph: Graph,
                 request: PartitionRequest, detail: str) -> None:
        self.id = session_id
        self.request = request
        self.detail = detail
        self.dyn = DynamicGraph(graph)
        self.inc: Optional[IncrementalSession] = None
        self.created_at = time.time()
        self.patches_applied = 0
        self.error: Optional[str] = None
        self._cond = threading.Condition()
        self._submitted_seq = 0
        self._next_seq = 0

    # -- ordering gate ---------------------------------------------------
    def claim_seq(self) -> int:
        with self._cond:
            seq = self._submitted_seq
            self._submitted_seq += 1
            return seq

    def enter(self, seq: int) -> None:
        with self._cond:
            self._cond.wait_for(lambda: self._next_seq == seq)

    def leave(self) -> None:
        with self._cond:
            self._next_seq += 1
            self._cond.notify_all()

    def status_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "session": self.id, "detail": self.detail,
            "k": self.request.k,
            "ready": self.inc is not None,
            "patches_applied": self.patches_applied,
            "n": self.dyn.n, "m": self.dyn.m,
            "created_at": self.created_at,
        }
        if self.inc is not None:
            doc["reference_cut"] = float(self.inc.reference_cut)
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobManager:
    """Owns the worker pool, the job/session tables and the cache."""

    def __init__(self, workers: int = 2, queue_limit: int = 16,
                 cache: Optional[ResultCache] = None,
                 cache_bytes: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None,
                 artifacts_dir: Optional[str] = None,
                 max_jobs_kept: int = 1024) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.registry = registry if registry is not None else MetricsRegistry()
        if cache is None:
            kwargs = {} if cache_bytes is None else {"max_bytes": cache_bytes}
            cache = ResultCache(registry=self.registry, **kwargs)
        self.cache = cache
        self.queue_limit = queue_limit
        self.artifacts_dir = Path(artifacts_dir) if artifacts_dir else None
        if self.artifacts_dir is not None:
            self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        self.max_jobs_kept = max_jobs_kept
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="repro-job")
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._job_order: List[str] = []
        self._sessions: Dict[str, SessionHandle] = {}
        #: generator spec description -> its graph's (signature, n), LRU,
        #: at most ``max_jobs_kept`` entries (see :meth:`remember_graph`)
        self._known_specs: "OrderedDict[str, Tuple[str, int]]" = \
            OrderedDict()
        self._queued = 0
        self._inflight = 0
        self._draining = False
        self._drained = threading.Condition(self._lock)
        for name in ("jobs_submitted", "jobs_executed", "jobs_completed",
                     "jobs_failed", "jobs_cache_hits",
                     "jobs_rejected_queue_full", "jobs_rejected_draining",
                     "patches_applied"):
            self.registry.counter(name)
        self.registry.gauge("queue_depth")
        self.registry.gauge("sessions_held")
        # critical-path analysis of the most recent observed job (set by
        # _trace_artifact whenever an analysis sidecar is produced)
        self.registry.gauge("critical_path_s")
        self.registry.gauge("wait_fraction")
        self.registry.histogram("job_wait_seconds", buckets=_JOB_BUCKETS)
        self.registry.histogram("job_run_seconds", buckets=_JOB_BUCKETS)

    # ------------------------------------------------------------------
    # admission + bookkeeping
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def _admit(self) -> None:
        """Raise unless a new job may enter the queue (caller must then
        enqueue under the same lock before releasing it)."""
        if self._draining:
            self.registry.counter("jobs_rejected_draining").inc()
            raise Draining("server is draining; no new jobs",
                           retry_after_s=5.0)
        if self._queued >= self.queue_limit:
            self.registry.counter("jobs_rejected_queue_full").inc()
            raise QueueFull(
                f"job queue is full ({self.queue_limit} queued)",
                retry_after_s=1.0)

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._job_order.append(job.id)
        # drop the oldest *finished* jobs beyond the retention window so
        # a long-lived server does not grow without bound
        while len(self._job_order) > self.max_jobs_kept:
            for i, jid in enumerate(self._job_order):
                if self._jobs[jid].finished:
                    del self._jobs[jid]
                    del self._job_order[i]
                    break
            else:
                break  # everything live: keep them all

    def _enqueue(self, job: Job, fn, *args) -> None:
        """Register + schedule ``job`` (must hold ``self._lock``)."""
        self._register(job)
        self._queued += 1
        self._inflight += 1
        self.registry.gauge("queue_depth").set(float(self._queued))
        self.registry.counter("jobs_submitted").inc()
        self._pool.submit(self._run, job, fn, *args)

    def _run(self, job: Job, fn, *args) -> None:
        job.started_at = time.time()
        with self._lock:
            self._queued -= 1
            self.registry.gauge("queue_depth").set(float(self._queued))
            job.state = "running"
        self.registry.histogram("job_wait_seconds").observe(
            job.started_at - job.submitted_at)
        error: Optional[str] = "interrupted"
        try:
            job.result = fn(job, *args)
            error = None
        except Exception as exc:  # job errors land on the job record
            error = f"{type(exc).__name__}: {exc}"
        finally:
            job.error = error
            job.finished_at = time.time()
            # the state goes last: a reader that sees done (failed) also
            # sees the job's finish time and result (error)
            job.state = "done" if error is None else "failed"
            self.registry.counter(
                "jobs_completed" if error is None else "jobs_failed").inc()
            self.registry.histogram("job_run_seconds").observe(
                job.finished_at - job.started_at)
            self.registry.counter("jobs_executed").inc()
            self._journal(job)
            job._event.set()
            with self._lock:
                self._inflight -= 1
                self._drained.notify_all()

    def _finish_cached(self, job: Job, result: PartitionResult) -> Job:
        """Complete a cache-hit job synchronously — no queue, no worker."""
        job.cache_hit = True
        job.result = result
        job.started_at = job.finished_at = time.time()
        job.state = "done"
        self.registry.counter("jobs_submitted").inc()
        self.registry.counter("jobs_cache_hits").inc()
        self.registry.counter("jobs_completed").inc()
        self._journal(job)
        job._event.set()
        with self._lock:
            self._register(job)
        return job

    # ------------------------------------------------------------------
    # submit paths
    # ------------------------------------------------------------------
    def remember_graph(self, description: str, graph: Graph) -> None:
        """Record that the generator spec ``description`` (its
        :func:`~repro.service.graphspec.describe_spec`) builds ``graph``,
        so :meth:`submit_known` can find its results without building it
        again.  Keeps the signature and node count, not the graph."""
        known = (graph.cached_signature(), graph.n)
        with self._lock:
            self._known_specs[description] = known
            self._known_specs.move_to_end(description)
            while len(self._known_specs) > self.max_jobs_kept:
                self._known_specs.popitem(last=False)

    def submit_known(self, description: Optional[str],
                     request: PartitionRequest,
                     tenant: str = "anonymous",
                     request_id: Optional[str] = None) -> Optional[Job]:
        """A partition job finished from the cache without its graph:
        when :meth:`remember_graph` knows the spec ``description`` and
        the cache holds the result.  ``None`` otherwise — the caller then
        builds the graph and goes through :meth:`submit_partition`.
        Raises :class:`RequestError` when ``k`` exceeds the known graph's
        node count."""
        if description is None:
            return None
        with self._lock:
            known = self._known_specs.get(description)
            if known is not None:
                self._known_specs.move_to_end(description)
        if known is None:
            return None
        signature, n = known
        if request.k > n:
            raise RequestError(f"k={request.k} exceeds the graph's {n} nodes")
        key = request.signature_key(signature)
        # the membership test counts nothing, so a miss is counted once,
        # by submit_partition (an entry evicted between the two lookups
        # is counted twice)
        cached = self.cache.get(key) if key in self.cache else None
        if cached is None:
            return None
        job = Job(id=_new_id("job"), kind="partition", tenant=tenant,
                  request=request.to_json(), detail=description,
                  request_id=request_id)
        return self._finish_cached(job, cached)

    def submit_partition(self, graph: Graph, request: PartitionRequest,
                         tenant: str = "anonymous",
                         detail: str = "",
                         request_id: Optional[str] = None) -> Job:
        """A scratch partition job; served from the cache when possible."""
        cfg = request.config()  # fail fast (RequestError → 400)
        key = request.cache_key(graph, cfg)
        job = Job(id=_new_id("job"), kind="partition", tenant=tenant,
                  request=request.to_json(), detail=detail,
                  request_id=request_id)
        cached = self.cache.get(key)
        if cached is not None:
            return self._finish_cached(job, cached)
        with self._lock:
            self._admit()
            self._enqueue(job, self._do_partition, graph, request, key)
        return job

    def _do_partition(self, job: Job, graph: Graph,
                      request: PartitionRequest, key: str,
                      ) -> PartitionResult:
        # the graph goes as a keyword, which the engine does not copy
        # into shared memory as it does a positional Graph
        job_args = dict(graph=graph, request=request,
                        traced=self.artifacts_dir is not None)
        if request.execution == "cluster" \
                and request.config().engine == "process":
            # its PEs are processes already, and the engine's daemonic
            # workers cannot fork PEs of their own
            out = _scratch_partition(None, **job_args)
        else:
            # a fork inherits the loaded library, the graph and its
            # memoized signature (the child never rehashes it), and runs
            # only library code, which takes none of the server's locks
            out = ProcessEngine(1).run(_scratch_partition,
                                       **job_args).results[0]
        trace = out.pop("trace")
        data = PartitionResult(k=request.k, n=graph.n, m=graph.m,
                               cache_key=key, **out)
        self.cache.put(key, data)
        self._trace_artifact(job, trace)
        return data

    def create_session(self, graph: Graph, request: PartitionRequest,
                       tenant: str = "anonymous",
                       detail: str = "",
                       request_id: Optional[str] = None) -> Job:
        """Open an incremental session: the graph is *held* server-side
        and the initial full partition runs as a job; subsequent PATCH
        jobs mutate the held graph instead of re-uploading it."""
        request.config()  # fail fast
        session = SessionHandle(_new_id("sess"), graph, request, detail)
        job = Job(id=_new_id("job"), kind="session_init", tenant=tenant,
                  request=request.to_json(), detail=detail,
                  session_id=session.id, request_id=request_id)
        seq = session.claim_seq()
        with self._lock:
            self._admit()
            self._sessions[session.id] = session
            self.registry.gauge("sessions_held").set(
                float(len(self._sessions)))
            self._enqueue(job, self._do_session_init, session, seq)
        return job

    def _do_session_init(self, job: Job, session: SessionHandle,
                         seq: int) -> PartitionResult:
        session.enter(seq)
        try:
            request = session.request
            cfg = request.config().derive(incremental=True)
            t0 = time.perf_counter()
            session.inc = IncrementalSession.start(
                session.dyn.graph(), request.k, config=cfg,
                seed=request.seed)
            wall = time.perf_counter() - t0
            g = session.dyn.graph()
            part = session.inc.part
            balance, feasible = _balance_verdict(g, part, request.k, cfg)
            return PartitionResult(
                part=part.copy(), k=request.k, n=g.n, m=g.m,
                cut=float(session.inc.reference_cut),
                balance=balance, feasible=feasible, time_s=wall,
                cache_key=request.cache_key(g, cfg),
            )
        except Exception as exc:
            session.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            session.leave()

    def submit_patch(self, session_id: str, batch_doc: Mapping[str, Any],
                     tenant: str = "anonymous",
                     request_id: Optional[str] = None) -> Job:
        """Apply a mutation batch to a held session (in submission
        order) and incrementally repartition."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(session_id)
        try:
            batch = MutationBatch.from_json(dict(batch_doc))
        except (MutationError, TypeError, ValueError) as exc:
            raise RequestError(f"bad mutation batch: {exc}") from None
        job = Job(id=_new_id("job"), kind="patch", tenant=tenant,
                  request={"session": session_id, "ops": len(batch)},
                  detail=session.detail, session_id=session_id,
                  request_id=request_id)
        with self._lock:
            self._admit()
            seq = session.claim_seq()
            self._enqueue(job, self._do_patch, session, batch, seq)
        return job

    def _do_patch(self, job: Job, session: SessionHandle,
                  batch: MutationBatch, seq: int) -> PartitionResult:
        session.enter(seq)
        try:
            if session.error is not None:
                raise RuntimeError(
                    f"session {session.id} is broken: {session.error}")
            assert session.inc is not None  # seq order: init ran first
            br = session.dyn.apply(batch)
            g2 = session.dyn.graph()
            res = session.inc.apply(g2, br.dirty_nodes)
            session.patches_applied += 1
            self.registry.counter("patches_applied").inc()
            request = session.request
            balance, feasible = _balance_verdict(
                g2, res.partition.part, request.k, request.config())
            return PartitionResult(
                part=res.partition.part.copy(), k=request.k,
                n=g2.n, m=g2.m, cut=float(res.cut),
                balance=balance, feasible=feasible,
                time_s=float(res.time_s),
                stats={
                    "migrated_nodes": float(res.migrated_nodes),
                    "migrated_weight": float(res.migrated_weight),
                    "dirty_band_nodes": float(res.dirty_band_nodes),
                    "used_fallback": float(res.used_fallback),
                },
            )
        except MutationError as exc:
            # a rejected batch leaves the session usable (apply validates
            # per phase; stream-level validation is the client's job)
            raise RequestError(f"mutation rejected: {exc}") from None
        finally:
            session.leave()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[jid] for jid in self._job_order]

    def session(self, session_id: str) -> SessionHandle:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(session_id)
        return session

    def sessions(self) -> List[SessionHandle]:
        with self._lock:
            return list(self._sessions.values())

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight jobs; True when idle."""
        with self._lock:
            self._draining = True
            ok = self._drained.wait_for(lambda: self._inflight == 0,
                                        timeout=timeout)
        self._pool.shutdown(wait=ok)
        return ok

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def _trace_artifact(self, job: Job,
                        trace: Optional[Dict[str, Any]]) -> None:
        if self.artifacts_dir is None or trace is None:
            return
        trace = dict(trace)
        meta = dict(trace.get("meta") or {})
        meta["job"] = job.id
        if job.request_id is not None:
            meta["request_id"] = job.request_id
        trace["meta"] = meta
        path = self.artifacts_dir / f"{job.id}.trace.json"
        with open(path, "w") as fh:
            json.dump(trace, fh,
                      default=lambda o: o.item() if hasattr(o, "item") else o)
            fh.write("\n")
        # critical-path sidecar: every trace artifact gets an
        # {job}.analysis.json next to it, and /metrics reflects the most
        # recent analysed job.  Analysis must never fail a job.
        try:
            from ..observability import analyze_trace

            analysis = analyze_trace(trace)
            analysis.setdefault("meta", {})["job"] = job.id
            if job.request_id is not None:
                analysis["meta"]["request_id"] = job.request_id
            apath = self.artifacts_dir / f"{job.id}.analysis.json"
            with open(apath, "w") as fh:
                json.dump(analysis, fh, default=lambda o: o.item()
                          if hasattr(o, "item") else o)
                fh.write("\n")
            self.registry.gauge("critical_path_s").set(
                float(analysis.get("critical_path_s") or 0.0))
            self.registry.gauge("wait_fraction").set(
                float(analysis.get("wait_fraction") or 0.0))
        except Exception:
            pass

    def _journal(self, job: Job) -> None:
        if self.artifacts_dir is None:
            return
        record: Dict[str, Any] = {
            "schema": "repro.journal/1",
            "ts": time.time(),
            "job": job.id, "kind": job.kind, "state": job.state,
            "tenant": job.tenant, "cache_hit": job.cache_hit,
            "wall_s": ((job.finished_at or 0.0) - job.submitted_at),
        }
        if job.request_id is not None:
            record["request_id"] = job.request_id
        if job.result is not None:
            record["cut"] = float(job.result.cut)
            record["time_s"] = float(job.result.time_s)
        if job.error is not None:
            record["error"] = job.error
        try:
            append_journal(str(self.artifacts_dir / "journal.jsonl"), record)
        except OSError:  # journalling must never fail a job
            pass


def _scratch_partition(comm, *, graph: Graph, request: PartitionRequest,
                       traced: bool) -> Dict[str, Any]:
    """A scratch job's library run, as wire-codec data: the
    :class:`PartitionResult` fields the parent cannot fill in itself,
    plus the trace document when the job is ``traced``.  ``comm`` is the
    one-PE engine's communicator (unused; ``None`` in-thread)."""
    tracer = Tracer() if traced else None
    # observe=True only when the trace is kept: it adds causal events and
    # the comm matrix to the artifact without changing the partition or
    # the cache key
    result = execute_request(graph, request, tracer=tracer, observe=traced)
    return {
        "part": result.part, "cut": result.cut, "balance": result.balance,
        "feasible": result.feasible, "time_s": result.time_s,
        "mapping_cost": result.mapping_cost, "stats": result.stats,
        "trace": result.kappa.trace if traced else None,
    }


def _balance_verdict(g: Graph, part: np.ndarray, k: int,
                     cfg: KappaConfig) -> Tuple[float, bool]:
    """``(balance, feasible)`` of a session result, by the same
    every-dimension test as :func:`~repro.service.api.execute_request`."""
    return (float(metrics.balance(g, part, k)),
            bool(is_feasible(g, part, k, cfg.epsilon, cfg.epsilons)))

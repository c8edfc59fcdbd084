"""Partitioning-as-a-service: the HTTP front end.

Stdlib only (``http.server.ThreadingHTTPServer``), JSON wire format.
The server is the *entry gate* in front of the library: admission
control first (request size → 413, per-tenant token bucket → 429,
bounded queue / draining → 503, all with ``Retry-After``), then the
job layer (:class:`~repro.service.jobs.JobManager`).

Routes (all JSON unless noted)::

    POST  /v1/partition          submit {graph, k, preset, seed, ...}
    POST  /v1/sessions           like /v1/partition, but holds the graph
    PATCH /v1/sessions/<id>      apply a MutationBatch, repartition
    POST  /v1/sessions/<id>/patch   same (for PATCH-less clients)
    GET   /v1/sessions/<id>      session status
    GET   /v1/jobs               list jobs
    GET   /v1/jobs/<id>          job status
    GET   /v1/jobs/<id>/result   the PartitionResult (409 while pending)
    GET   /metrics               Prometheus text exposition
    GET   /healthz               liveness + drain state

Every endpoint's latency lands in a per-endpoint histogram on the
shared :class:`~repro.observability.MetricsRegistry` (exposed at
``/metrics`` together with queue depth, cache ratios and job
counters).  SIGTERM/SIGINT trigger a graceful drain: in-flight jobs
finish, new submissions get 503, then the listener stops.
"""

from __future__ import annotations

import json
import re
import signal
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..observability import MetricsRegistry, prometheus_text
from .api import PartitionRequest, RequestError
from .graphspec import GraphSpecError, resolve_graph
from .jobs import (
    AdmissionError,
    JobManager,
    UnknownJob,
    UnknownSession,
)
from .quotas import QuotaManager

__all__ = ["PartitionServer", "create_server", "run_server"]

TENANT_HEADER = "X-Repro-Tenant"
#: correlation id: echoed on every response, stamped into journal
#: records and per-job trace/analysis artifacts; generated server-side
#: when the client does not send one
REQUEST_ID_HEADER = "X-Repro-Request-Id"
DEFAULT_MAX_REQUEST_BYTES = 32 * 1024 * 1024  # 32 MiB

#: sub-second-biased buckets for HTTP endpoint latency
_HTTP_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

_JOB_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9-]+)$")
_JOB_RESULT_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9-]+)/result$")
_SESSION_RE = re.compile(r"^/v1/sessions/([A-Za-z0-9-]+)$")
_SESSION_PATCH_RE = re.compile(r"^/v1/sessions/([A-Za-z0-9-]+)/patch$")


class PartitionServer(ThreadingHTTPServer):
    """The service: HTTP listener + job manager + admission state."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], manager: JobManager,
                 quotas: Optional[QuotaManager] = None,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.registry: MetricsRegistry = manager.registry
        self.quotas = quotas if quotas is not None \
            else QuotaManager(registry=manager.registry)
        self.max_request_bytes = int(max_request_bytes)
        self.started_at = time.time()
        self._serve_thread: Optional[threading.Thread] = None
        self.registry.counter("http_requests_total")
        # handler-side work outside the job pool, in the handler thread
        self.registry.histogram("graph_resolve_seconds",
                                buckets=_HTTP_BUCKETS)
        self.registry.histogram("response_encode_seconds",
                                buckets=_HTTP_BUCKETS)

    # -- lifecycle -------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        return f"http://{host}:{port}"

    def start_background(self) -> "PartitionServer":
        """Serve in a daemon thread (tests, benchmarks, embedding)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="repro-service", daemon=True)
        thread.start()
        self._serve_thread = thread
        return self

    def drain_and_shutdown(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful stop: refuse new jobs, finish in-flight ones, stop
        the listener.  Returns True when everything drained in time."""
        drained = self.manager.drain(timeout=timeout)
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        return drained


class _Handler(BaseHTTPRequestHandler):
    server: PartitionServer  # narrowed type
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:  # quiet by default
        pass

    @property
    def tenant(self) -> str:
        return self.headers.get(TENANT_HEADER, "anonymous").strip() \
            or "anonymous"

    def _resolve_request_id(self) -> str:
        """The correlation id for *this* request: the client's
        ``X-Repro-Request-Id`` header, or a fresh server-generated one.

        Called at the top of every ``do_*`` (the handler instance is
        reused across keep-alive requests, so the id must be re-resolved
        per request, never cached on first access)."""
        rid = (self.headers.get(REQUEST_ID_HEADER) or "").strip()
        if not rid:
            rid = f"req-{uuid.uuid4().hex[:12]}"
        self._request_id = rid
        return rid

    def _send_json(self, status: int, doc: Dict[str, Any],
                   retry_after: Optional[float] = None,
                   encode_t0: Optional[float] = None) -> None:
        """Send ``doc``; its serialisation time, from ``encode_t0`` when
        the caller started building ``doc`` itself, lands in the
        ``response_encode_seconds`` histogram."""
        t0 = time.perf_counter() if encode_t0 is None else encode_t0
        body = json.dumps(doc).encode("utf-8")
        self.server.registry.histogram("response_encode_seconds").observe(
            time.perf_counter() - t0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        rid = getattr(self, "_request_id", None)
        if rid:
            self.send_header(REQUEST_ID_HEADER, rid)
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after + 0.5))))
        self.end_headers()
        self.wfile.write(body)
        reg = self.server.registry
        reg.counter("http_requests_total").inc()
        reg.counter(f"http_responses_{status}").inc()

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        rid = getattr(self, "_request_id", None)
        if rid:
            self.send_header(REQUEST_ID_HEADER, rid)
        self.end_headers()
        self.wfile.write(body)
        reg = self.server.registry
        reg.counter("http_requests_total").inc()
        reg.counter(f"http_responses_{status}").inc()

    def _error(self, status: int, message: str,
               retry_after: Optional[float] = None) -> None:
        self._send_json(status, {"error": message}, retry_after=retry_after)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        """The JSON request body, or None after an error response.

        The size limit is enforced on Content-Length *before* reading:
        oversized uploads are refused with 413 without buffering them.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if length <= 0:
            self._error(400, "a JSON request body is required")
            return None
        if length > self.server.max_request_bytes:
            self._error(413, f"request of {length} bytes exceeds the "
                             f"{self.server.max_request_bytes} byte limit")
            return None
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(doc, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return doc

    def _observe(self, endpoint: str, t0: float) -> None:
        self.server.registry.histogram(
            f"http_{endpoint}_latency_seconds",
            buckets=_HTTP_BUCKETS).observe(time.perf_counter() - t0)

    # -- routing ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        t0 = time.perf_counter()
        self._resolve_request_id()
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, {
                "status": "draining" if self.server.manager.draining
                else "ok",
                "uptime_s": time.time() - self.server.started_at,
                "queue_depth": self.server.manager.queue_depth,
            })
            return self._observe("healthz", t0)
        if path == "/metrics":
            text = prometheus_text(self.server.registry.export())
            self._send_text(200, text)
            return self._observe("metrics", t0)
        if path == "/v1/jobs":
            self._send_json(200, {"jobs": [
                job.status_json() for job in self.server.manager.jobs()
            ]})
            return self._observe("jobs_list", t0)
        match = _JOB_RE.match(path)
        if match:
            try:
                job = self.server.manager.job(match.group(1))
            except UnknownJob:
                return self._error(404, f"unknown job {match.group(1)!r}")
            self._send_json(200, job.status_json())
            return self._observe("job_status", t0)
        match = _JOB_RESULT_RE.match(path)
        if match:
            try:
                job = self.server.manager.job(match.group(1))
            except UnknownJob:
                return self._error(404, f"unknown job {match.group(1)!r}")
            if job.state == "failed":
                return self._error(500, job.error or "job failed")
            if not job.finished or job.result is None:
                return self._error(
                    409, f"job {job.id} is {job.state}; result not ready",
                    retry_after=1.0)
            t_enc = time.perf_counter()
            doc = job.result.to_json()
            doc["job"] = job.id
            doc["cache_hit"] = job.cache_hit
            self._send_json(200, doc, encode_t0=t_enc)
            return self._observe("job_result", t0)
        match = _SESSION_RE.match(path)
        if match:
            try:
                session = self.server.manager.session(match.group(1))
            except UnknownSession:
                return self._error(404,
                                   f"unknown session {match.group(1)!r}")
            self._send_json(200, session.status_json())
            return self._observe("session_status", t0)
        self._error(404, f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802
        t0 = time.perf_counter()
        self._resolve_request_id()
        path = self.path.split("?", 1)[0]
        if path == "/v1/partition":
            self._submit(hold_session=False)
            return self._observe("submit", t0)
        if path == "/v1/sessions":
            self._submit(hold_session=True)
            return self._observe("session_create", t0)
        match = _SESSION_PATCH_RE.match(path)
        if match:
            self._patch(match.group(1))
            return self._observe("session_patch", t0)
        self._error(404, f"no route for POST {path}")

    def do_PATCH(self) -> None:  # noqa: N802
        t0 = time.perf_counter()
        self._resolve_request_id()
        path = self.path.split("?", 1)[0]
        match = _SESSION_RE.match(path)
        if match:
            self._patch(match.group(1))
            return self._observe("session_patch", t0)
        self._error(404, f"no route for PATCH {path}")

    # -- handlers --------------------------------------------------------
    def _admit_tenant(self) -> bool:
        ok, retry_after = self.server.quotas.admit(self.tenant)
        if not ok:
            self._error(429, f"tenant {self.tenant!r} is over quota",
                        retry_after=retry_after)
        return ok

    def _submit(self, hold_session: bool) -> None:
        body = self._read_body()
        if body is None:
            return
        if not self._admit_tenant():
            return
        try:
            request = PartitionRequest.from_json(body)
            t_graph = time.perf_counter()
            graph, detail = resolve_graph(body.get("graph"))
            self.server.registry.histogram("graph_resolve_seconds").observe(
                time.perf_counter() - t_graph)
            if request.k > graph.n:
                raise RequestError(
                    f"k={request.k} exceeds the graph's {graph.n} nodes")
            manager = self.server.manager
            rid = getattr(self, "_request_id", None)
            if hold_session:
                job = manager.create_session(graph, request,
                                             tenant=self.tenant,
                                             detail=detail,
                                             request_id=rid)
            else:
                job = manager.submit_partition(graph, request,
                                               tenant=self.tenant,
                                               detail=detail,
                                               request_id=rid)
        except (RequestError, GraphSpecError) as exc:
            return self._error(400, str(exc))
        except AdmissionError as exc:
            return self._error(503, str(exc),
                               retry_after=exc.retry_after_s)
        doc = job.status_json()
        self._send_json(200 if job.finished else 202, doc)

    def _patch(self, session_id: str) -> None:
        body = self._read_body()
        if body is None:
            return
        if not self._admit_tenant():
            return
        try:
            job = self.server.manager.submit_patch(
                session_id, body, tenant=self.tenant,
                request_id=getattr(self, "_request_id", None))
        except UnknownSession:
            return self._error(404, f"unknown session {session_id!r}")
        except RequestError as exc:
            return self._error(400, str(exc))
        except AdmissionError as exc:
            return self._error(503, str(exc),
                               retry_after=exc.retry_after_s)
        self._send_json(202, job.status_json())


def create_server(host: str = "127.0.0.1", port: int = 0,
                  workers: int = 2, queue_limit: int = 16,
                  cache_bytes: Optional[int] = None,
                  rate: Optional[float] = None,
                  burst: Optional[float] = None,
                  max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                  artifacts_dir: Optional[str] = None,
                  registry: Optional[MetricsRegistry] = None,
                  clock=time.monotonic) -> PartitionServer:
    """Wire a full service: registry + cache + jobs + quotas + HTTP.

    ``port=0`` binds an ephemeral port (see ``server.url``).  ``rate``
    (requests/second/tenant, ``burst`` capacity) enables quotas.
    """
    registry = registry if registry is not None else MetricsRegistry()
    manager = JobManager(workers=workers, queue_limit=queue_limit,
                         cache_bytes=cache_bytes, registry=registry,
                         artifacts_dir=artifacts_dir)
    quotas = QuotaManager(rate=rate, burst=burst, clock=clock,
                          registry=registry)
    return PartitionServer((host, port), manager, quotas=quotas,
                           max_request_bytes=max_request_bytes)


def run_server(server: PartitionServer,
               drain_timeout: float = 30.0,
               install_signals: bool = True) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully (CLI path)."""
    stop = threading.Event()

    def _signal(signum, frame):  # pragma: no cover - signal delivery
        stop.set()
        # unblock serve_forever from the signal handler's thread
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _signal)
        signal.signal(signal.SIGINT, _signal)
    try:
        server.serve_forever()
    finally:
        drained = server.manager.drain(timeout=drain_timeout)
        server.server_close()
    return 0 if drained else 1

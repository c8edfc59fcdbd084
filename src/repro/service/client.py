"""Stdlib client for the partitioning service.

:class:`ServiceClient` wraps the JSON wire in typed calls that return
the same :class:`~repro.service.api.PartitionResult` data objects the
library produces, so swapping a direct :func:`execute_request` call for
a remote one is a one-line change.  Built on :mod:`urllib` — the client
has exactly the dependencies the server has: none.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from ..graph.csr import Graph
from .api import PartitionRequest, PartitionResult
from .graphspec import graph_to_spec

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(RuntimeError):
    """A non-2xx response; carries the HTTP status and Retry-After."""

    def __init__(self, status: int, message: str,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


class ServiceClient:
    """A thin, blocking client for one service endpoint.

    Thread-safe: holds no mutable state beyond configuration, so a
    load-test harness can share one client across worker threads.
    """

    def __init__(self, base_url: str, tenant: Optional[str] = None,
                 timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout_s = timeout_s

    # -- wire plumbing ---------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        req = urllib.request.Request(self.base_url + path, data=data,
                                     method=method)
        if data is not None:
            req.add_header("Content-Type", "application/json")
        if self.tenant:
            req.add_header("X-Repro-Tenant", self.tenant)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(raw).get("error", raw)
            except (json.JSONDecodeError, AttributeError):
                message = raw
            retry_after = exc.headers.get("Retry-After")
            raise ServiceError(
                exc.code, str(message),
                retry_after_s=float(retry_after) if retry_after else None,
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: "
                                  f"{exc.reason}") from None

    def _get_text(self, path: str) -> str:
        req = urllib.request.Request(self.base_url + path)
        if self.tenant:
            req.add_header("X-Repro-Tenant", self.tenant)
        with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
            return resp.read().decode("utf-8")

    # -- job submission --------------------------------------------------
    @staticmethod
    def _body(request: PartitionRequest, graph_spec: Dict[str, Any]
              ) -> Dict[str, Any]:
        body = request.to_json()
        body["graph"] = graph_spec
        return body

    def submit(self, request: PartitionRequest,
               graph: Optional[Graph] = None,
               graph_spec: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
        """POST /v1/partition; returns the job-status document.

        Pass either a :class:`Graph` (uploaded as METIS text) or a
        ``graph_spec`` dict (``{"generator": ...}`` / ``{"metis": ...}``).
        """
        if (graph is None) == (graph_spec is None):
            raise ValueError("pass exactly one of graph / graph_spec")
        spec = graph_spec if graph_spec is not None else graph_to_spec(graph)
        return self._request("POST", "/v1/partition",
                             self._body(request, spec))

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Long-poll until the job leaves queued/running; the final
        status.  Each request asks the server to hold its answer for at
        most half the socket timeout, so a held answer never times out."""
        deadline = time.monotonic() + timeout_s
        while True:
            hold = max(0.0, min(deadline - time.monotonic(),
                                self.timeout_s / 2))
            doc = self._request("GET", f"/v1/jobs/{job_id}?wait={hold:.3f}")
            if doc["state"] in ("done", "failed"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} "
                    f"after {timeout_s:.1f}s")

    def result(self, job_id: str) -> PartitionResult:
        doc = self._request("GET", f"/v1/jobs/{job_id}/result")
        return PartitionResult.from_json(doc)

    def partition(self, request: PartitionRequest,
                  graph: Optional[Graph] = None,
                  graph_spec: Optional[Dict[str, Any]] = None,
                  timeout_s: float = 60.0) -> PartitionResult:
        """Submit, wait, fetch: the blocking convenience call."""
        job = self.submit(request, graph=graph, graph_spec=graph_spec)
        status = job if job["state"] in ("done", "failed") \
            else self.wait(job["job"], timeout_s=timeout_s)
        if status["state"] == "failed":
            raise ServiceError(500, status.get("error") or "job failed")
        return self.result(status["job"])

    # -- sessions --------------------------------------------------------
    def create_session(self, request: PartitionRequest,
                       graph: Optional[Graph] = None,
                       graph_spec: Optional[Dict[str, Any]] = None,
                       timeout_s: float = 60.0) -> Dict[str, Any]:
        """POST /v1/sessions and wait for the initial partition; returns
        the finished init-job status (``session`` holds the id)."""
        if (graph is None) == (graph_spec is None):
            raise ValueError("pass exactly one of graph / graph_spec")
        spec = graph_spec if graph_spec is not None else graph_to_spec(graph)
        job = self._request("POST", "/v1/sessions",
                            self._body(request, spec))
        return self.wait(job["job"], timeout_s=timeout_s)

    def patch(self, session_id: str, batch_doc: Dict[str, Any],
              timeout_s: float = 60.0) -> PartitionResult:
        """PATCH a MutationBatch into the session; waits for the
        incremental repartition and returns it."""
        job = self._request("PATCH", f"/v1/sessions/{session_id}",
                            batch_doc)
        status = self.wait(job["job"], timeout_s=timeout_s)
        if status["state"] == "failed":
            raise ServiceError(500, status.get("error") or "patch failed")
        return self.result(status["job"])

    def session_status(self, session_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/sessions/{session_id}")

    # -- observability ---------------------------------------------------
    def metrics_text(self) -> str:
        """The Prometheus exposition from ``/metrics``."""
        return self._get_text("/metrics")

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

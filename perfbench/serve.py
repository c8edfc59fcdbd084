"""The service workload: ``serve-mixed``.

``repro serve --workers 2`` runs as a child process.  This process is the
load generator: two closed-loop client threads over loopback, each
repeating a fixed 8-op cycle

    miss, hit, patch, hit, patch, hit, patch, hit

* miss  — a scratch partition of rgg n=2048, k=8, with a graph and seed
  unique per (client, round): always a cache miss, the full pipeline;
* hit   — one of four requests pre-warmed during set-up: always served
  from the result cache without a worker;
* patch — the next batch of the client's own mutation stream
  (``graph.dynamic.generate_mutation_stream``) PATCHed into its held
  session: an incremental repartition (drift fallback off, see
  ``SESSION_DRIFT_THRESHOLD``).

The clients run their rounds in lockstep: between rounds, with every
request answered and the server idle, this process probes the host's
speed, and each round's times are scaled to reference seconds by the
probes around it (``common.ref_factor``).

The schedule is deterministic, so ``/metrics`` must count exactly 4 cache
hits, 1 cache miss and 4 executed jobs per cycle; any other count fails
the run.  Every response is checked against the library after the
window: ``execute_request`` for misses and hits, an ``IncrementalSession``
replay of the same stream for patches.
"""

from __future__ import annotations

import json
import math
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    MAX_PARALLEL,
    SETUP_REPEATS,
    BenchError,
    Outcome,
    check_partition,
    derive_seed,
    mean,
    median,
    probe,
    quantile,
    ref_factor,
    scale_times,
)
from library import COUNTS, trace_layers

from repro.core.incremental import IncrementalSession
from repro.graph.dynamic import DynamicGraph, generate_mutation_stream
from repro.service import (
    PartitionRequest,
    ServiceClient,
    ServiceError,
    execute_request,
)
from repro.service.graphspec import resolve_graph

K = 8
N = 2048
PRESET = "fast"
CLIENTS = MAX_PARALLEL
WORKERS = MAX_PARALLEL
HOT_KEYS = 4
CYCLE = ("miss", "hit", "patch", "hit", "patch", "hit", "patch", "hit")
#: rounds every client completes whatever the clock says: the misses of
#: these rounds are the fixed ops behind ``cut_mean``, and with two
#: clients ``op_p50_s`` rests on at least 20 cycles
MIN_ROUNDS = 10
#: the same for the traced window of a ``--trace 1`` run, which only
#: feeds the phase numbers and the tracing overhead
TRACED_ROUNDS = 6
#: upper bound on a client's rounds per measured second (the mutation
#: stream is generated for this many); today's rate is under 1.5
MAX_ROUNDS_PER_S = 3
STARTUP_TIMEOUT_S = 120
#: sessions never fall back to a full repartition on cut drift, so the
#: full pipeline runs exactly once per cycle (the miss).  With the default
#: threshold a drift fallback lands every ~17 patches and costs a full
#: run, and whether a window holds two or three of them swings its
#: throughput by ~20%.
SESSION_DRIFT_THRESHOLD = 1000.0

_HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

def _rgg(graph_seed: int) -> Dict[str, Any]:
    return {"generator": {"family": "rgg",
                          "params": {"n": N, "seed": graph_seed}}}


def _request(pseed: int, **options: Any) -> PartitionRequest:
    return PartitionRequest(k=K, preset=PRESET, seed=pseed, options=options)


def miss_input(seed: int, client: int, rnd: int
               ) -> Tuple[Dict[str, Any], PartitionRequest]:
    return (_rgg(derive_seed(seed, 1, client, rnd)),
            _request(derive_seed(seed, 2, client, rnd)))


def hot_input(seed: int, j: int) -> Tuple[Dict[str, Any], PartitionRequest]:
    return _rgg(derive_seed(seed, 3, j)), _request(derive_seed(seed, 4, j))


def session_input(seed: int, client: int
                  ) -> Tuple[Dict[str, Any], PartitionRequest, int]:
    """Graph spec, request and mutation-stream seed of a client's session."""
    return (_rgg(derive_seed(seed, 5, client)),
            _request(derive_seed(seed, 6, client),
                     drift_threshold=SESSION_DRIFT_THRESHOLD),
            derive_seed(seed, 7, client))


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------

class ServerProcess:
    """``repro serve`` as a child process on an ephemeral loopback port."""

    def __init__(self, root: Path, artifacts_dir: Optional[str]) -> None:
        args = [sys.executable, "-u", str(_HERE / "serve_child.py"),
                "--port", "0", "--workers", str(WORKERS)]
        if artifacts_dir is not None:
            args += ["--artifacts-dir", artifacts_dir]
        self.proc = subprocess.Popen(args, cwd=root, stdout=subprocess.PIPE,
                                     text=True)
        # a reader thread drains the child's stdout so it never blocks on
        # a full pipe and never writes into a closed one
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.url: Optional[str] = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def _line(self) -> str:
        try:
            line = self._lines.get(timeout=STARTUP_TIMEOUT_S)
        except queue.Empty:
            raise BenchError("service did not start in time") from None
        if line is None:
            raise BenchError(f"service exited early (rc={self.proc.wait()})")
        return line

    def imported(self) -> None:
        """Block until the child has finished its imports."""
        while self._line() != "imports-done":
            pass

    def ready(self) -> str:
        """Block until the listener is up and answers /healthz."""
        line = self._line()
        while "listening on" not in line:
            line = self._line()
        self.url = line.split("listening on", 1)[1].split()[0]
        ServiceClient(self.url).health()
        return self.url

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()


class BenchClient(ServiceClient):
    """The stdlib service client plus a PATCH that returns the job."""

    def submit_patch(self, session_id: str,
                     batch_doc: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("PATCH", f"/v1/sessions/{session_id}",
                             batch_doc)


def _scalars(client: ServiceClient) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for line in client.metrics_text().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            out[name] = float(value)
    return out


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Session:
    sid: str
    spec: Dict[str, Any]
    request: PartitionRequest
    stream: list


@dataclass
class Service:
    server: ServerProcess
    client: BenchClient
    sessions: List[Session]


def setup(root: Path, seed: int, seconds: float,
          artifacts_dir: Optional[str] = None) -> Tuple[Service, float]:
    """Start the server, pre-warm the hot keys, open one session per
    client and generate its mutation stream.  The set-up time is in
    reference seconds, by probes taken before the server starts and once
    set-up is done."""
    before = probe()
    server = ServerProcess(root, artifacts_dir)
    try:
        server.imported()
        t0 = time.perf_counter()
        client = BenchClient(server.ready(), tenant="perfbench")
        for j in range(HOT_KEYS):
            spec, req = hot_input(seed, j)
            client.partition(req, graph_spec=spec)
        n_batches = 3 * max(MIN_ROUNDS,
                            math.ceil(seconds * MAX_ROUNDS_PER_S))
        sessions = []
        for c in range(CLIENTS):
            spec, req, stream_seed = session_input(seed, c)
            status = client.create_session(req, graph_spec=spec)
            if status["state"] != "done":
                raise BenchError(f"session init failed: {status}")
            base, _ = resolve_graph(spec)
            sessions.append(Session(
                status["session"], spec, req,
                generate_mutation_stream(base, n_batches, seed=stream_seed)))
        setup_s = (time.perf_counter() - t0) * ref_factor(before, probe())
    except BaseException:
        server.stop()
        raise
    return Service(server, client, sessions), setup_s


# ---------------------------------------------------------------------------
# the measured window
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    client: int
    rnd: int
    index: int                  # hot key / batch number; 0 for misses
    latency_s: float = 0.0      # reference seconds once the window ends
    #: reference seconds per wall second in the op's round
    factor: float = 1.0
    status: Optional[Dict[str, Any]] = None
    result: Any = None          # PartitionResult
    error: Optional[str] = None


def _finish(client: ServiceClient, job: Dict[str, Any]):
    status = job if job["state"] in ("done", "failed") \
        else client.wait(job["job"])
    if status["state"] != "done":
        raise ServiceError(500, status.get("error") or "job failed")
    return status, client.result(status["job"])


def _client_round(svc: Service, seed: int, c: int, rnd: int,
                  ops: List[Op]) -> None:
    """One 8-op cycle of client ``c``, each op waited for in turn."""
    client = svc.client
    session = svc.sessions[c]
    batch = 3 * rnd
    hot = 0
    for kind in CYCLE:
        if kind == "miss":
            op = Op(kind, c, rnd, 0)
            spec, req = miss_input(seed, c, rnd)
        elif kind == "hit":
            op = Op(kind, c, rnd, hot)
            spec, req = hot_input(seed, hot)
            hot += 1
        else:
            op = Op(kind, c, rnd, batch)
            doc = session.stream[batch].to_json()
            batch += 1
        t0 = time.perf_counter()
        try:
            if kind == "patch":
                job = client.submit_patch(session.sid, doc)
            else:
                job = client.submit(req, graph_spec=spec)
            op.status, op.result = _finish(client, job)
            op.latency_s = time.perf_counter() - t0
        except (ServiceError, TimeoutError, OSError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)


def _client_loop(svc: Service, seed: int, c: int, gate: threading.Barrier,
                 go: List[bool], ops: List[Op]) -> None:
    """Rounds in lockstep with the other client: wait at ``gate`` for
    the start, run the cycle, wait at ``gate`` for the end."""
    rnd = 0
    try:
        while True:
            gate.wait()
            if not go[0]:
                return
            _client_round(svc, seed, c, rnd, ops)
            gate.wait()
            rnd += 1
    except threading.BrokenBarrierError:
        return
    except BaseException:
        gate.abort()
        raise


def window(svc: Service, seed: int, seconds: float, min_rounds: int
           ) -> Tuple[List[Op], float, Dict[str, float]]:
    """Run rounds until the clients have spent ``seconds`` in them (and
    at least ``min_rounds`` rounds), probing the host between rounds; returns
    the ops (latencies in reference seconds), the rounds' total time in
    reference seconds and the /metrics deltas."""
    max_rounds = len(svc.sessions[0].stream) // 3
    before = _scalars(svc.client)
    per_client: List[List[Op]] = [[] for _ in range(CLIENTS)]
    gate = threading.Barrier(CLIENTS + 1)
    go = [True]
    threads = [threading.Thread(target=_client_loop,
                                args=(svc, seed, c, gate, go, per_client[c]))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    factors: List[float] = []
    elapsed = ref_total = 0.0
    try:
        last = probe()
        while len(factors) < max_rounds and (
                len(factors) < min_rounds or elapsed < seconds):
            gate.wait()
            t0 = time.perf_counter()
            gate.wait()
            wall = time.perf_counter() - t0
            after = probe()
            factors.append(ref_factor(last, after))
            last = after
            elapsed += wall
            ref_total += wall * factors[-1]
        go[0] = False
        gate.wait()
    except threading.BrokenBarrierError:
        raise BenchError("a client thread failed") from None
    finally:
        go[0] = False
        gate.abort()
        for t in threads:
            t.join()
    after = _scalars(svc.client)
    delta = {name: after.get(name, 0.0) - before.get(name, 0.0)
             for name in after}
    ops = [op for ops in per_client for op in ops]
    for op in ops:
        op.factor = factors[op.rnd]
        op.latency_s *= op.factor
    return ops, ref_total, delta


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_schedule(ops: List[Op], delta: Dict[str, float],
                   outcome: Outcome) -> int:
    """The cache and job counters must match the schedule exactly;
    returns the number of cycles run."""
    cycles = len(ops) // len(CYCLE)
    expect = {"repro_cache_hits": 4 * cycles,
              "repro_cache_misses": cycles,
              "repro_jobs_cache_hits": 4 * cycles,
              "repro_jobs_executed": 4 * cycles}
    for name, want in expect.items():
        got = delta.get(name, 0.0)
        if got != want:
            outcome.fail_run(f"serve-mixed: /metrics {name} moved by {got}, "
                             f"schedule says {want}")
    return cycles


def verify(seed: int, svc: Service, ops: List[Op], outcome: Outcome) -> None:
    """Every response is bit-identical to the library's answer, feasible,
    and its reported cut equals the cut recomputed here."""
    eps = _request(0).config().epsilon
    hot_ref: Dict[int, Tuple[Any, np.ndarray]] = {}
    for j in range(HOT_KEYS):
        spec, req = hot_input(seed, j)
        g, _ = resolve_graph(spec)
        hot_ref[j] = (g, execute_request(g, req).part)
    replays = {}
    for c, session in enumerate(svc.sessions):
        base, _ = resolve_graph(session.spec)
        cfg = session.request.config().derive(incremental=True)
        replays[c] = (DynamicGraph(base), IncrementalSession.start(
            base, K, config=cfg, seed=session.request.seed))
    for op in sorted(ops, key=lambda o: (o.client, o.kind, o.index, o.rnd)):
        outcome.attempted += 1
        if op.kind == "miss":
            spec, req = miss_input(seed, op.client, op.rnd)
            g, _ = resolve_graph(spec)
            want = execute_request(g, req).part
        elif op.kind == "hit":
            g, want = hot_ref[op.index]
        else:
            dyn, inc = replays[op.client]
            applied = dyn.apply(svc.sessions[op.client].stream[op.index])
            g = dyn.graph()
            want = inc.apply(g, applied.dirty_nodes).partition.part
        why = op.error
        if why is None and op.status["cache_hit"] != (op.kind == "hit"):
            why = f"cache_hit={op.status['cache_hit']}"
        if why is None and not np.array_equal(op.result.part, want):
            why = "differs from the library answer"
        if why is None:
            why = check_partition(g, op.result.part, K, eps, op.result.cut)
        if why is not None:
            outcome.fail_op(f"serve-mixed {op.kind} client={op.client} "
                            f"round={op.rnd}: {why}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _lat(ops: List[Op], kind: Optional[str] = None) -> List[float]:
    return [op.latency_s for op in ops
            if op.error is None and kind in (None, op.kind)]


def _server_s(ops: List[Op], start: str, end: str,
              kinds=("miss", "patch")) -> List[float]:
    """Server-side spans from the job-status timestamps, in reference
    seconds."""
    return [(op.status[end] - op.status[start]) * op.factor for op in ops
            if op.error is None and op.kind in kinds]


def op_p50(ops: List[Op]) -> float:
    """Median over the (client, round) cycles of the mean op latency in
    the cycle.  Half of all ops are cache hits, so a median over single
    ops sits on the edge between the slowest hits and the fastest
    patches, and jumps from one to the other between runs; a cycle's
    mean latency is one steady number per client and round."""
    cycles: Dict[Tuple[int, int], List[float]] = {}
    for op in ops:
        if op.error is None:
            cycles.setdefault((op.client, op.rnd), []).append(op.latency_s)
    return quantile([mean(lat) for lat in cycles.values()], 0.5)


def layer_metrics(ops: List[Op], delta: Dict[str, float],
                  cycles: int) -> Dict[str, float]:
    ok = [op for op in ops if op.error is None]
    return {
        "service.hit_p50_s": median(_lat(ops, "hit")),
        "service.miss_p50_s": median(_lat(ops, "miss")),
        "service.patch_p50_s": median(_lat(ops, "patch")),
        "service.http_s": median(
            [op.latency_s - op.status["wall_s"] * op.factor for op in ok]),
        "service.queue_wait_s": median(
            _server_s(ops, "submitted_at", "started_at")),
        "service.run_s.miss": median(
            _server_s(ops, "started_at", "finished_at", ("miss",))),
        "service.run_s.patch": median(
            _server_s(ops, "started_at", "finished_at", ("patch",))),
        "incremental.patch_run_s": median(
            [op.result.time_s * op.factor for op in ok
             if op.kind == "patch"]),
        "service.cache_hit_ratio":
            delta.get("repro_jobs_cache_hits", 0.0) / max(1, len(ops)),
        "service.cache_hits_per_cycle":
            delta.get("repro_cache_hits", 0.0) / max(1, cycles),
        "service.cache_misses_per_cycle":
            delta.get("repro_cache_misses", 0.0) / max(1, cycles),
        "service.jobs_executed": delta.get("repro_jobs_executed", 0.0),
    }


def artifact_layers(ops: List[Op], artifacts_dir: str) -> Dict[str, float]:
    """Phase and level numbers of the traced misses, from the per-job
    trace artifacts the server writes (counts over the fixed rounds,
    times as medians).

    Kernel numbers are left out: the kernel dispatcher reports into one
    process-wide tracer, so with two worker threads a job's kernel
    counters also collect calls made by the job running beside it.
    """
    per_op = []
    for op in ops:
        if op.kind == "miss" and op.error is None:
            path = Path(artifacts_dir) / f"{op.status['job']}.trace.json"
            with open(path) as fh:
                per_op.append((op.rnd, scale_times(
                    trace_layers(json.load(fh)), op.factor)))
    out: Dict[str, float] = {}
    for name in per_op[0][1] if per_op else ():
        if name.startswith("kernels."):
            continue
        if name in COUNTS:
            out[name] = mean([v[name] for rnd, v in per_op
                              if rnd < TRACED_ROUNDS])
        else:
            out[name] = median([v[name] for _, v in per_op])
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _measure(root: Path, seed: int, seconds: float, repeats: int,
             min_rounds: int, outcome: Outcome,
             artifacts_dir: Optional[str] = None):
    """Set up ``repeats`` times (keeping the last service), run one
    window, check it; returns (ops, the rounds' reference seconds, the
    /metrics deltas, cycles, set-up times)."""
    setups = []
    svc = None
    try:
        for _ in range(repeats):
            if svc is not None:
                svc.server.stop()
            svc, setup_s = setup(root, seed, seconds, artifacts_dir)
            setups.append(setup_s)
        ops, ref_s, delta = window(svc, seed, seconds, min_rounds)
    finally:
        if svc is not None:
            svc.server.stop()
    cycles = check_schedule(ops, delta, outcome)
    verify(seed, svc, ops, outcome)
    return ops, ref_s, delta, cycles, setups


def run(root: Path, seed: int, seconds: float, trace: bool,
        outcome: Outcome) -> None:
    if not trace:
        t0 = time.perf_counter()
        ops, ref_s, _, _, setups = _measure(root, seed, seconds,
                                            SETUP_REPEATS, MIN_ROUNDS,
                                            outcome)
        outcome.metrics.update({
            "setup_s": median(setups),
            "op_p50_s": op_p50(ops),
            "op_p95_s": quantile(_lat(ops), 0.95),
            "throughput_ops_s": len(ops) / ref_s,
            "cut_mean": mean([op.result.cut for op in ops
                              if op.kind == "miss" and op.error is None
                              and op.rnd < MIN_ROUNDS]),
        })
        outcome.diagnostics.update(ops=len(ops),
                                   run_wall_s=time.perf_counter() - t0)
        return
    plain, _, delta, cycles, _ = _measure(root, seed, seconds / 2, 1,
                                          MIN_ROUNDS, outcome)
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    arts = tempfile.mkdtemp(prefix=f"serve-{os.getpid()}-", dir=work)
    try:
        traced, _, _, _, _ = _measure(root, seed, seconds / 2, 1,
                                      TRACED_ROUNDS, outcome,
                                      artifacts_dir=arts)
        outcome.metrics.update(artifact_layers(traced, arts))
    finally:
        shutil.rmtree(arts, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:  # another run's artifacts are still there
            pass
    outcome.metrics.update(layer_metrics(plain, delta, cycles))
    outcome.metrics["op_p95_s"] = quantile(_lat(plain), 0.95)
    outcome.metrics["tracing.overhead_s"] = op_p50(traced) - op_p50(plain)
    outcome.diagnostics["ops"] = len(plain) + len(traced)

"""Process engine: one real OS process per virtual PE.

The simulated engine reproduces the paper's *algorithmic* behaviour but
runs one PE at a time, so wall clock never improves with PE count.
This engine runs every PE as a real ``multiprocessing`` process:

* the input CSR graph is placed in shared memory once
  (:class:`~repro.engine.shm.SharedGraph`) and mapped zero-copy by every
  worker;
* point-to-point messages travel over a full mesh of OS pipes, serialised
  by the pickle-free numpy-buffer codec (:mod:`repro.engine.wire`);
* collectives run as a deterministic star over rank 0 (gather in rank
  order, fold locally on every PE — the same rank-order fold as the
  other engines, so results are bit-identical);
* per-PE results, metrics registries and byte counts return to the
  parent over dedicated result pipes.

Scheduling is OS-level and non-deterministic, but every SPMD phase draws
randomness from ``comm.derive_rng`` and communicates through matching
deterministic operations, so the *outcome* equals the sequential and
simulated engines' bit for bit — the cross-engine equivalence suite
enforces exactly this.

Wall-clock speedup over the simulated engine scales with physical cores:
redundant per-PE work that sim runs one PE after another runs
concurrently here.
On a single-core host the engine still works but cannot be faster.

Resilience (:mod:`repro.resilience`) plugs in through an optional
:class:`~repro.resilience.policy.ResiliencePolicy`.  With one attached,
the engine runs each attempt as a supervised *gang*: workers heartbeat
over their result pipes at phase boundaries, injected message faults
perturb the wire (send-side latency, duplicate frames deduplicated by a
sequence-number envelope), and on PE death / hang / recoverable error
the supervisor tears the gang down and either relaunches it (the SPMD
program fast-forwards through its checkpoints) or degrades to the
surviving PE count.  Without a policy the behaviour — and the fast
non-enveloped wire format — is exactly as before.
"""

from __future__ import annotations

import builtins
import multiprocessing
import os
import time
import traceback
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..graph.csr import Graph
from ..observability.registry import merge_registry_docs
from ..resilience.faults import InjectedCrash, MessageFaultInjector
from ..resilience.policy import ResiliencePolicy
from ..resilience.supervisor import Supervisor, classify_statuses
from . import wire
from .base import (
    CommBase,
    DeadlockError,
    Engine,
    EngineFailure,
    EngineResult,
)
from .shm import SharedGraph

__all__ = ["ProcessEngine", "ProcessComm"]

#: reserved system tags (user tags must be non-negative)
_TAG_COLL = -1         # collective contribution, worker -> rank 0
_TAG_COLL_RESULT = -2  # collective result, rank 0 -> worker

_POLL_S = 0.25  # wakeup granularity while waiting on a pipe

#: exit code of a worker killed by an injected crash (distinctive, so a
#: chaos run's process table reads unambiguously)
_CRASH_EXIT_CODE = 43


class ProcessComm(CommBase):
    """Communicator of one worker process (mesh pipes + wire codec).

    With a resilience policy attached the wire format switches to a
    sequence-numbered envelope ``(tag, seq, obj)`` on every PE (senders
    may then transmit duplicate frames; receivers discard any frame whose
    sequence number is not strictly increasing per source), heartbeats
    and fault events flow to the parent over the result pipe, and recv
    grows an exponential-backoff retry ladder.
    """

    def __init__(self, rank: int, size: int, peers: Dict[int, Any],
                 recv_timeout_s: float, *, result_conn: Any = None,
                 policy: Optional[ResiliencePolicy] = None,
                 attempt: int = 0) -> None:
        super().__init__()
        self.rank = rank
        self._size = size
        self._peers = peers
        self.recv_timeout_s = recv_timeout_s
        self._inbox: Dict[int, Dict[int, Deque[Any]]] = {}
        self._coll_seq = 0
        self.attempt = attempt
        self._result_conn = result_conn
        self.recv_retries = policy.recv_retries if policy is not None else 0
        self._seq_mode = (policy is not None
                          and policy.faults.has_message_faults)
        self._send_seq: Dict[int, int] = {}
        self._recv_seq: Dict[int, int] = {}
        self._injector: Optional[MessageFaultInjector] = None
        if self._seq_mode:
            assert policy is not None
            self._injector = MessageFaultInjector(
                policy.faults, rank, policy.fault_seed, attempt,
                self.metrics,
            )

    @property
    def size(self) -> int:
        return self._size

    # -- supervision hooks ----------------------------------------------
    def _control(self, payload: Tuple) -> None:
        if self._result_conn is None:
            return
        try:
            self._result_conn.send_bytes(wire.encode(payload))
        except Exception:  # pragma: no cover - parent gone
            pass

    def heartbeat(self, label: str) -> None:
        """Tell the supervisor this PE is alive (phase boundaries)."""
        self._control(("hb", self.rank, label, time.monotonic()))

    def fault_event(self, name: str) -> None:
        """Push an injected-fault event to the supervisor *before* any
        crash: the event must survive ``os._exit``."""
        self._control(("ev", self.rank, name))

    def hard_crash(self) -> None:
        """Die the way a real node dies: no cleanup, no report."""
        os._exit(_CRASH_EXIT_CODE)  # pragma: no cover - kills the worker

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if tag < 0:
            raise ValueError("user tags must be non-negative")
        self._post(obj, dest, tag)

    def _post(self, obj: Any, dest: int, tag: int) -> None:
        if not (0 <= dest < self._size):
            raise ValueError(f"bad destination {dest}")
        if dest == self.rank:  # loopback without a pipe (never faulted)
            box = self._inbox.setdefault(dest, {})
            box.setdefault(tag, deque()).append(obj)
            self.messages_sent += 1
            if self.obs is not None and tag >= 0:
                self.obs.on_send(self.rank, dest, tag, obj)
            return
        copies = 1
        if self._seq_mode:
            seq = self._send_seq.get(dest, 0)
            self._send_seq[dest] = seq + 1
            data = wire.encode((tag, seq, obj))
            if self._injector is not None and self._injector.active:
                sleep_s, copies = self._injector.plan_send()
                self._injector.apply_send_latency(sleep_s)
            for _ in range(copies):
                self._peers[dest].send_bytes(data)
            self.bytes_sent += len(data) * copies
        else:
            data = wire.encode((tag, obj))
            self._peers[dest].send_bytes(data)
            self.bytes_sent += len(data)
        self.messages_sent += 1
        # system-tag traffic (collectives over rank 0) is booked by the
        # recorder's collective model instead, so it must not be counted
        # again here; retry/duplicate frames surface as extra ``copies``
        if self.obs is not None and tag >= 0:
            self.obs.on_send(self.rank, dest, tag, obj, copies=copies)

    def recv(self, source: int, tag: int = 0,
             timeout: Optional[float] = None) -> Any:
        if tag < 0:
            raise ValueError("user tags must be non-negative")
        return self._pull(source, tag, timeout)

    def _pull(self, source: int, tag: int,
              timeout: Optional[float] = None) -> Any:
        if not (0 <= source < self._size):
            raise ValueError(f"bad source {source}")
        if timeout is None:
            timeout = self.recv_timeout_s
        obs = self.obs if tag >= 0 else None
        t0 = time.perf_counter() if obs is not None else 0.0
        box = self._inbox.setdefault(source, {})
        q = box.get(tag)
        if q:
            # the hook fires exactly once per successful user recv —
            # including zero-wait buffered hits — so the causal recv
            # counter walks each channel in lockstep with the sender
            if obs is not None:
                obs.on_recv_wait(source, self.rank, tag,
                                 time.perf_counter() - t0)
            return q.popleft()
        if source == self.rank:
            raise DeadlockError(
                f"PE {self.rank}: recv from self on tag {tag} with no "
                "message queued (engine=process)"
            )
        # retry ladder: recv_retries extra rounds, timeout doubling each
        # time, to ride out transient slowness (injected delays, a peer
        # paging in) without declaring deadlock on the first silence
        attempt_timeout = timeout
        for retry in range(self.recv_retries + 1):
            obj = self._wait_for(source, tag, box, attempt_timeout)
            if obj is not _NOTHING:
                if obs is not None:
                    obs.on_recv_wait(source, self.rank, tag,
                                     time.perf_counter() - t0)
                return obj
            if retry < self.recv_retries:
                self.count("fault_recv_retries")
                attempt_timeout *= 2.0
        waited = timeout * (2.0 ** (self.recv_retries + 1) - 1.0) \
            if self.recv_retries else timeout
        retry_note = (f" and {self.recv_retries} retries with doubled "
                      "timeout" if self.recv_retries else "")
        buffered = sorted(
            (t, len(msgs)) for t, msgs in box.items() if msgs
        )
        detail = (
            "; buffered tags from that PE: "
            + ", ".join(f"tag={t} x{n}" for t, n in buffered)
            if buffered else "; nothing buffered from that PE"
        )
        raise DeadlockError(
            f"PE {self.rank}: recv(source={source}, tag={tag}) timed out "
            f"after {waited:g}s{retry_note} (engine=process){detail}"
        )

    def _wait_for(self, source: int, tag: int,
                  box: Dict[int, Deque[Any]], timeout: float) -> Any:
        """One bounded wait for a message; ``_NOTHING`` on timeout."""
        conn = self._peers[source]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return _NOTHING
            if conn.poll(min(remaining, _POLL_S)):
                try:
                    data = conn.recv_bytes()
                except EOFError:
                    raise EngineFailure(
                        f"PE {self.rank}: PE {source} closed its channel "
                        f"while recv(tag={tag}) was waiting"
                    ) from None
                if self._seq_mode:
                    got_tag, seq, obj = wire.decode(data)
                    last = self._recv_seq.get(source, -1)
                    if seq <= last:  # duplicated frame — drop silently
                        continue
                    self._recv_seq[source] = seq
                else:
                    got_tag, obj = wire.decode(data)
                if got_tag == tag:
                    return obj
                box.setdefault(got_tag, deque()).append(obj)

    # -- collectives ------------------------------------------------------
    def _exchange(self, value: Any) -> List[Any]:
        """Deterministic star rendezvous over rank 0."""
        seq = self._coll_seq
        self._coll_seq += 1
        if self.rank == 0:
            slots: List[Any] = [None] * self._size
            slots[0] = value
            for src in range(1, self._size):
                got_seq, v = self._pull(src, _TAG_COLL)
                if got_seq != seq:
                    raise EngineFailure(
                        f"collective mismatch: PE 0 is at collective "
                        f"#{seq} but PE {src} sent #{got_seq}"
                    )
                slots[src] = v
            for dst in range(1, self._size):
                self._post((seq, slots), dst, _TAG_COLL_RESULT)
            return slots
        self._post((seq, value), 0, _TAG_COLL)
        got_seq, slots = self._pull(0, _TAG_COLL_RESULT)
        if got_seq != seq:
            raise EngineFailure(
                f"collective mismatch: PE {self.rank} is at collective "
                f"#{seq} but rank 0 answered #{got_seq}"
            )
        return list(slots)


class _Nothing:
    __slots__ = ()


_NOTHING = _Nothing()  # recv-timeout sentinel (None is a legal message)


def _worker_main(rank: int, size: int, peers: Dict[int, Any], result_conn,
                 fn, args, kwargs, recv_timeout_s: float,
                 policy: Optional[ResiliencePolicy] = None,
                 attempt: int = 0) -> None:
    """Worker process body: rebuild shared graphs, run the program,
    report result + stats (or the failure) to the parent."""
    comm = ProcessComm(
        rank, size, peers, recv_timeout_s,
        result_conn=result_conn if policy is not None else None,
        policy=policy, attempt=attempt,
    )
    t0 = time.perf_counter()

    def stats() -> Dict[str, Any]:
        return {
            "wall_s": time.perf_counter() - t0,
            "bytes_sent": comm.bytes_sent,
            "messages_sent": comm.messages_sent,
            "metrics": comm.metrics.export(),
            # per-PE observability export (wire-codec-friendly dict of
            # spans/comm cells/events) rides home with the stats
            "obs": comm.obs.export() if comm.obs is not None else None,
        }

    try:
        real_args = [
            a.graph() if isinstance(a, SharedGraph) else a for a in args
        ]
        out = fn(comm, *real_args, **kwargs)
        payload = ("ok", out, stats())
        try:
            data = wire.encode(payload)
        except wire.WireError as exc:
            data = wire.encode(
                ("err", "WireError",
                 f"SPMD result of PE {rank} is not wire-serialisable: "
                 f"{exc}", "", stats())
            )
        result_conn.send_bytes(data)
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        try:
            result_conn.send_bytes(wire.encode(
                ("err", type(exc).__name__, str(exc),
                 traceback.format_exc(), stats())
            ))
        except Exception:  # pragma: no cover - parent gone
            pass


def _rebuild_exception(rank: int, name: str, msg: str,
                       tb: str) -> BaseException:
    """Raise the worker's failure under its original type when that type
    is unambiguous (engine exceptions, builtins); otherwise wrap it."""
    known = {"DeadlockError": DeadlockError, "EngineFailure": EngineFailure,
             "WireError": wire.WireError, "InjectedCrash": InjectedCrash}
    exc_type = known.get(name) or getattr(builtins, name, None)
    if (isinstance(exc_type, type) and issubclass(exc_type, BaseException)
            and not issubclass(exc_type, (SystemExit, KeyboardInterrupt))):
        try:
            exc = exc_type(msg)
        except Exception:  # pragma: no cover - exotic signature
            exc = EngineFailure(f"PE {rank}: {name}: {msg}")
    else:
        exc = EngineFailure(f"PE {rank}: {name}: {msg}")
    if tb:
        exc.__cause__ = EngineFailure(
            f"worker traceback (PE {rank}):\n{tb}"
        )
    return exc


class ProcessEngine(Engine):
    """True multiprocessing: one OS process per virtual PE.

    ``start_method`` defaults to ``fork`` where available (workers
    inherit the program and its arguments without any serialisation);
    ``spawn`` also works provided ``fn`` and non-graph arguments are
    picklable — messages themselves never use pickle either way.

    An optional ``resilience`` policy turns :meth:`run` into a
    supervised loop of gang attempts (see the module docstring); without
    one a failed PE raises immediately, exactly as before.
    """

    name = "process"

    def __init__(self, p: int, recv_timeout_s: Optional[float] = None,
                 start_method: Optional[str] = None,
                 resilience: Optional[ResiliencePolicy] = None) -> None:
        super().__init__(p, recv_timeout_s)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.resilience = resilience

    def run(self, fn: Callable[..., Any], *args: Any,
            **kwargs: Any) -> EngineResult:
        ctx = multiprocessing.get_context(self.start_method)
        policy = self.resilience
        supervisor = Supervisor(policy) if policy is not None else None

        shared_graphs: List[SharedGraph] = []
        conv_args: List[Any] = []
        for a in args:
            if isinstance(a, Graph):
                sg = SharedGraph(a)
                shared_graphs.append(sg)
                conv_args.append(sg)
            else:
                conv_args.append(a)

        try:
            p_eff = self.p
            attempt = 0
            while True:
                statuses = self._run_gang(
                    ctx, fn, conv_args, kwargs, p_eff, attempt, policy,
                    supervisor,
                )
                failure = classify_statuses(statuses)
                if failure is None:
                    if supervisor is not None:
                        supervisor.mark_recovered()
                    return self._assemble_result(statuses, supervisor)
                if supervisor is None:
                    self._raise_failure(statuses)
                decision = supervisor.decide(failure)
                if decision == "fail":
                    self._raise_failure(statuses)
                if decision == "degrade":
                    survivors = p_eff - len(failure.dead_ranks)
                    if survivors < 1:
                        self._raise_failure(statuses)
                    supervisor.note_degrade(failure, survivors)
                    p_eff = survivors
                else:
                    supervisor.note_restart(failure)
                attempt += 1
        finally:
            for sg in shared_graphs:
                sg.cleanup()

    # -- one gang attempt -----------------------------------------------
    def _run_gang(self, ctx, fn, conv_args, kwargs, p: int, attempt: int,
                  policy: Optional[ResiliencePolicy],
                  supervisor: Optional[Supervisor]) -> List[Any]:
        """Launch ``p`` workers, collect one status tuple per rank:
        ``("ok", out, stats)`` / ``("err", name, msg, tb, stats)`` /
        ``("died", detail)`` / ``("hung", detail)``."""
        mesh: Dict[Tuple[int, int], Tuple[Any, Any]] = {}
        for i in range(p):
            for j in range(i + 1, p):
                mesh[(i, j)] = ctx.Pipe(duplex=True)
        result_pipes = [ctx.Pipe(duplex=False) for _ in range(p)]

        hb_timeout = policy.heartbeat_timeout_s if policy else None
        now = time.monotonic()
        last_hb = [now] * p

        procs = []
        try:
            for r in range(p):
                peers = {}
                for (i, j), (ci, cj) in mesh.items():
                    if i == r:
                        peers[j] = ci
                    elif j == r:
                        peers[i] = cj
                proc = ctx.Process(
                    target=_worker_main,
                    args=(r, p, peers, result_pipes[r][1], fn, conv_args,
                          kwargs, self.recv_timeout_s, policy, attempt),
                    daemon=True,
                )
                procs.append(proc)
                proc.start()
            # the mesh and the result send-ends belong to the workers now
            for ci, cj in mesh.values():
                ci.close()
                cj.close()
            for _, send_end in result_pipes:
                send_end.close()

            statuses: List[Any] = [None] * p
            pending = set(range(p))
            eof = [False] * p  # result pipe closed with no final status
            failed = False
            while pending and not failed:
                for r in sorted(pending):
                    rc = result_pipes[r][0]
                    wait = _POLL_S if len(pending) == p else 0.01
                    status = self._drain(rc, r, wait, supervisor, last_hb,
                                         eof)
                    if status is not None:
                        statuses[r] = status
                        pending.discard(r)
                    elif not procs[r].is_alive() and (
                            eof[r] or not rc.poll(0)):
                        statuses[r] = (
                            "died",
                            f"PE {r} exited without reporting "
                            f"(exitcode={procs[r].exitcode})",
                        )
                        pending.discard(r)
                    elif (hb_timeout is not None
                          and time.monotonic() - last_hb[r] > hb_timeout):
                        statuses[r] = (
                            "hung",
                            f"PE {r}: no heartbeat for more than "
                            f"{hb_timeout:g}s",
                        )
                        pending.discard(r)
                    if statuses[r] is not None and statuses[r][0] != "ok":
                        failed = True
            if failed:
                if supervisor is not None:
                    supervisor.mark_failure()
                # grace drain: a failure elsewhere often makes peers fail
                # a moment later — pick those up so the lowest-rank (root
                # cause) error is the one reported, then stop the rest
                for r in sorted(pending):
                    status = self._drain(result_pipes[r][0], r, 0.2,
                                         supervisor, last_hb, eof)
                    if status is not None:
                        statuses[r] = status
                        pending.discard(r)
                for proc in procs:
                    if proc.is_alive():
                        proc.terminate()
            for proc in procs:
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join(timeout=5.0)
        finally:
            for recv_end, _ in result_pipes:
                recv_end.close()
        return statuses

    @staticmethod
    def _drain(rc, rank: int, wait: float,
               supervisor: Optional[Supervisor],
               last_hb: List[float], eof: List[bool]) -> Optional[Tuple]:
        """Read control messages off a result pipe until a final status
        arrives (returned) or the pipe is momentarily quiet (``None``)."""
        if eof[rank]:
            return None
        while rc.poll(wait):
            wait = 0.0  # after the first hit, only drain what's queued
            try:
                msg = wire.decode(rc.recv_bytes())
            except EOFError:
                # worker gone and every inherited copy of its pipe end
                # closed; remember it — poll() stays True at EOF, so
                # retrying would spin
                eof[rank] = True
                return None
            kind = msg[0]
            if kind == "hb":
                last_hb[rank] = time.monotonic()
            elif kind == "ev":
                if supervisor is not None:
                    supervisor.event(msg[2])
            else:
                return msg
        return None

    # -- outcomes --------------------------------------------------------
    def _raise_failure(self, statuses: List[Any]) -> None:
        for r, status in enumerate(statuses):
            if status is None:
                continue  # run aborted before this PE reported
            if status[0] in ("died", "hung"):
                raise EngineFailure(status[1])
            if status[0] == "err":
                _, name, msg, tb, _stats = status
                raise _rebuild_exception(r, name, msg, tb)
        raise EngineFailure(  # pragma: no cover - classify said failure
            "run failed with no reporting PE"
        )

    def _assemble_result(self, statuses: List[Any],
                         supervisor: Optional[Supervisor]) -> EngineResult:
        if any(status is None for status in statuses):  # pragma: no cover
            raise EngineFailure("run aborted with unreported PEs")
        results = [status[1] for status in statuses]
        all_stats = [status[2] for status in statuses]
        walls = [s["wall_s"] for s in all_stats]
        return EngineResult(
            results=results,
            makespan=max(walls) if walls else 0.0,
            clocks=walls,
            bytes_sent=sum(int(s["bytes_sent"]) for s in all_stats),
            messages_sent=sum(int(s["messages_sent"]) for s in all_stats),
            # supervisor events (restarts, PEs lost, recovery time) are
            # run-level counters beside the per-PE books
            metrics=merge_registry_docs(
                [s["metrics"] for s in all_stats]
                + [{"counters": supervisor.events}
                   if supervisor is not None else None]),
            obs=[s.get("obs") for s in all_stats],
        )

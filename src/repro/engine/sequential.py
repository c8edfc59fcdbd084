"""Deterministic sequential engine: cooperative virtual PEs.

Runs an SPMD program on ``p`` virtual PEs with *token-passing*
scheduling: exactly one PE executes at any moment, and the token moves
round-robin to the next runnable PE only when the current one blocks (a
``recv`` on an empty channel, a collective rendezvous) or finishes.  The
schedule is therefore a pure function of the program — independent of OS
thread scheduling, GIL switch intervals, or machine load — which makes
this the reference execution for the cross-engine equivalence suite and
the deterministic default for debugging SPMD phases.

Because the scheduler knows every PE's blocking state, deadlocks are
detected *structurally* (no runnable PE left) and reported immediately
with a per-PE diagnostic of which operation each stuck PE is waiting on —
no timeout needed.  The simulated engine
(:mod:`repro.engine.simulated`) is this scheduler plus a cost clock, so
it inherits the same detection.

Threads are used as coroutine carriers only; the token discipline means
there is no concurrency and no data race by construction.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..observability.registry import merge_registry_docs
from ..parallel.costmodel import payload_nbytes
from .base import Comm, CommBase, DeadlockError, Engine, EngineResult

__all__ = ["SequentialEngine", "SequentialComm"]


class _Aborted(BaseException):
    """Internal unwind signal for PEs cancelled after a peer failed."""


class _SeqShared:
    """Scheduler state shared by all virtual PEs of one run."""

    def __init__(self, p: int, engine: str) -> None:
        self.p = p
        self.engine = engine                # named in deadlock diagnostics
        self.cv = threading.Condition()
        self.token = 0
        self.state = ["ready"] * p          # ready | running | blocked | done
        self.pred: List[Optional[Callable[[], bool]]] = [None] * p
        self.info = [""] * p                # what a blocked PE waits on
        self.mail: Dict[Tuple[int, int, int], Deque[Any]] = {}
        #: collective rendezvous rounds: id -> {slots, deposited, read}
        self.rounds: Dict[int, Dict[str, Any]] = {}
        self.failure: Optional[BaseException] = None

    # All methods below are called with ``cv`` held. -------------------
    def _runnable(self, rank: int) -> bool:
        if self.state[rank] == "ready":
            return True
        if self.state[rank] == "blocked":
            pred = self.pred[rank]
            return pred is not None and pred()
        return False

    def pass_token(self, frm: int) -> None:
        """Hand the token to the next runnable PE (round-robin from
        ``frm``); raise a diagnostic :class:`DeadlockError` when every
        unfinished PE is blocked on an unsatisfiable condition."""
        for step in range(1, self.p + 1):
            cand = (frm + step) % self.p
            if self._runnable(cand):
                self.token = cand
                self.cv.notify_all()
                return
        if all(s == "done" for s in self.state):
            self.token = -1
            self.cv.notify_all()
            return
        stuck = "; ".join(
            f"PE {r} blocked at {self.info[r]}"
            for r in range(self.p) if self.state[r] == "blocked"
        )
        err = DeadlockError(
            f"SPMD deadlock (engine={self.engine}): no runnable PE — {stuck}"
        )
        if self.failure is None:
            self.failure = err
        self.cv.notify_all()
        raise err

    def wait_until(self, rank: int, pred: Callable[[], bool],
                   info: str) -> None:
        """Block PE ``rank`` until ``pred`` holds *and* the token has
        come back to it.  Deadlocks surface via :meth:`pass_token`, not
        via wall-clock timeouts, so long-running peers never trip a
        spurious failure."""
        if pred():
            return
        self.state[rank] = "blocked"
        self.pred[rank] = pred
        self.info[rank] = info
        self.pass_token(rank)
        while True:
            if self.failure is not None:
                raise _Aborted()
            if self.token == rank and pred():
                break
            self.cv.wait(1.0)
        self.state[rank] = "running"
        self.pred[rank] = None
        self.info[rank] = ""

    def wait_for_token(self, rank: int) -> None:
        while self.token != rank:
            if self.failure is not None:
                raise _Aborted()
            self.cv.wait(1.0)
        self.state[rank] = "running"


class SequentialComm(CommBase):
    """Communicator of one virtual PE under token-passing scheduling."""

    def __init__(self, rank: int, shared: _SeqShared) -> None:
        super().__init__()
        self.rank = rank
        self.shared = shared
        self._round = 0  # this PE's collective counter

    @property
    def size(self) -> int:
        return self.shared.p

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send (non-blocking buffered; channels are unbounded FIFOs).
        FIFO order per (src, dst, tag) channel is load-bearing: the
        causal tracer pairs the n-th send with the n-th recv on each
        channel (repro.observability.recorder)."""
        if not (0 <= dest < self.size):
            raise ValueError(f"bad destination {dest}")
        self.bytes_sent += payload_nbytes(obj)
        self.messages_sent += 1
        if self.obs is not None:
            self.obs.on_send(self.rank, dest, tag, obj)
        self._post(dest, tag, obj)

    def _post(self, dest: int, tag: int, obj: Any) -> None:
        """Append ``obj`` to the (rank, dest, tag) channel, unbooked."""
        sh = self.shared
        with sh.cv:
            sh.mail.setdefault((self.rank, dest, tag), deque()).append(obj)

    def recv(self, source: int, tag: int = 0,
             timeout: Optional[float] = None) -> Any:
        """Blocking receive.  ``timeout`` is accepted for interface
        compatibility but unused: deadlocks are detected structurally
        the moment no PE can make progress."""
        if not (0 <= source < self.size):
            raise ValueError(f"bad source {source}")
        obs = self.obs
        t0 = time.perf_counter() if obs is not None else 0.0
        obj = self._take(source, tag)
        if obs is not None:
            obs.on_recv_wait(source, self.rank, tag, time.perf_counter() - t0)
        return obj

    def _take(self, source: int, tag: int) -> Any:
        """Block until the (source, rank, tag) channel holds an entry;
        pop it, unbooked."""
        sh = self.shared
        with sh.cv:
            q = sh.mail.setdefault((source, self.rank, tag), deque())
            sh.wait_until(
                self.rank, lambda: len(q) > 0,
                f"recv(source={source}, tag={tag})",
            )
            return q.popleft()

    # -- collectives ------------------------------------------------------
    def _exchange(self, value: Any) -> List[Any]:
        sh = self.shared
        rid = self._round
        self._round += 1
        with sh.cv:
            rec = sh.rounds.get(rid)
            if rec is None:
                rec = sh.rounds[rid] = {
                    "slots": [None] * sh.p, "deposited": 0, "read": 0,
                }
            rec["slots"][self.rank] = value
            rec["deposited"] += 1
            sh.wait_until(
                self.rank, lambda: rec["deposited"] == sh.p,
                f"collective #{rid}",
            )
            out = list(rec["slots"])
            rec["read"] += 1
            if rec["read"] == sh.p:
                del sh.rounds[rid]
            return out


class SequentialEngine(Engine):
    """Deterministic single-active-thread execution of SPMD programs.

    >>> def program(comm):
    ...     return comm.allreduce(comm.rank)
    >>> SequentialEngine(4).run(program).results
    [6, 6, 6, 6]
    """

    name = "sequential"

    def _make_comms(self, shared: _SeqShared) -> List[SequentialComm]:
        return [SequentialComm(r, shared) for r in range(self.p)]

    def run(self, fn: Callable[..., Any], *args: Any,
            **kwargs: Any) -> EngineResult:
        shared = _SeqShared(self.p, self.name)
        comms = self._make_comms(shared)
        results: List[Any] = [None] * self.p
        errors: List[Optional[BaseException]] = [None] * self.p

        def worker(rank: int) -> None:
            try:
                if self.p > 1:
                    with shared.cv:
                        shared.wait_for_token(rank)
                results[rank] = fn(comms[rank], *args, **kwargs)
            except _Aborted:
                return
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                with shared.cv:
                    if shared.failure is None:
                        shared.failure = exc
                    shared.state[rank] = "done"
                    try:
                        shared.pass_token(rank)
                    except DeadlockError:
                        pass  # the run is already failing
                return
            with shared.cv:
                shared.state[rank] = "done"
                try:
                    shared.pass_token(rank)
                except DeadlockError as exc:
                    errors[rank] = exc

        if self.p == 1:
            worker(0)
        else:
            # every PE runs in a copy of the caller's context, so the
            # caller's kernel backend and tracer reach it
            threads = [
                threading.Thread(target=contextvars.copy_context().run,
                                 args=(worker, r), daemon=True)
                for r in range(self.p)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for err in errors:
            if err is not None:
                raise err
        if shared.failure is not None:
            raise shared.failure
        return self._result(results, comms)

    def _result(self, results: List[Any],
                comms: List[SequentialComm]) -> EngineResult:
        return EngineResult(
            results=results,
            makespan=None,
            clocks=[],
            bytes_sent=sum(c.bytes_sent for c in comms),
            messages_sent=sum(c.messages_sent for c in comms),
            metrics=merge_registry_docs(c.metrics.export() for c in comms),
            obs=[c.obs.export() if c.obs is not None else None
                 for c in comms],
        )

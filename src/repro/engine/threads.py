"""Threads engine: one worker thread per virtual PE over shared memory.

The sequential and simulated engines also carry each PE on a thread,
but let only one PE run at a time (token passing), and sim adds the
LogP cost model on top.  This engine is the raw-speed sibling: no token,
no cost model, no wire codec, no process forking — one Python thread per
PE communicating through in-process queues, with the input CSR graph
placed in a :class:`~repro.engine.shm.SharedGraph` block and mapped as a
zero-copy view by every PE, exactly the layout the process engine's
workers see.  Where the interpreter releases the GIL (numpy kernels, a
JIT'd ``nogil`` kernel backend, ``time.sleep``) the PEs run truly
concurrently.

Three design points keep it bit-identical to the other engines:

* collectives fold in rank order through :class:`~repro.engine.base.
  CommBase` — the rendezvous uses round-numbered slot records (like the
  sequential engine) so consecutive collectives cannot overtake each
  other, and observability books them under the same deterministic
  rank-0 star model, keeping comm matrices cell-for-cell identical;
* point-to-point channels are per-``(src, dst, tag)`` FIFOs, so message
  order is a function of the program, not the scheduler;
* all randomness flows through ``comm.derive_rng``.

**Work stealing.**  :meth:`ThreadsComm.map_batch` posts a batch of
independent zero-arg tasks (the per-pair FM refinements of one color
class) to a shared :class:`_StealPool`.  The owning PE drains its own
batch front to back, while any PE blocked in a collective rendezvous or
a ``recv`` opportunistically steals one task at a time from other PEs'
batches instead of idling.  Results come back in submission order, so
stealing is invisible to the algorithm — tasks must be independent and
may only touch PE-local state (the refinement pairs of one color move
disjoint node sets, so they commute bit-exactly).

Fault injection: with a :class:`~repro.resilience.policy.
ResiliencePolicy` attached, message faults perturb *timing only* —
``delay``/``drop`` clauses become send-side latency through the same
seeded :class:`~repro.resilience.faults.MessageFaultInjector` as the
process engine's wire.  There is no wire here, so ``dup`` clauses are
no-ops (shared memory cannot deliver a frame twice); crash/hang clauses
fire inside the SPMD program as on every engine.  The stress suite uses
these latency hooks as a deterministic scheduling-jitter source.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..graph.csr import Graph
from ..parallel.costmodel import payload_nbytes
from ..resilience.faults import MessageFaultInjector
from ..resilience.policy import ResiliencePolicy
from .base import CommBase, DeadlockError, Engine, EngineResult
from .shm import SharedGraph

__all__ = ["ThreadsEngine", "ThreadsComm"]

#: polling granularity while a blocked PE looks for tasks to steal
_STEAL_POLL_S = 0.02


class _Aborted(BaseException):
    """Internal unwind signal for PEs cancelled after a peer failed."""


class _Batch:
    """One PE's posted batch of stealable tasks.

    Tasks are claimed in submission order (owner and thieves alike), so
    which PE runs a task is timing-dependent but *what* runs — and the
    order results are returned in — is not.  All counters are guarded by
    the owning pool's condition variable.
    """

    __slots__ = ("fns", "next_claim", "done", "results", "errors")

    def __init__(self, fns: List[Callable[[], Any]]) -> None:
        self.fns = fns
        self.next_claim = 0                 # first unclaimed index
        self.done = 0                       # completed (ok or failed)
        self.results: List[Any] = [None] * len(fns)
        self.errors: List[Optional[BaseException]] = [None] * len(fns)

    def claim(self) -> Optional[int]:
        """Next unclaimed task index (pool lock held), or None."""
        if self.next_claim >= len(self.fns):
            return None
        i = self.next_claim
        self.next_claim += 1
        return i


class _StealPool:
    """The engine-wide work-stealing queue: one batch slot per PE."""

    def __init__(self, p: int) -> None:
        self.p = p
        self.cv = threading.Condition()
        self.batches: List[Optional[_Batch]] = [None] * p

    def post(self, rank: int, batch: _Batch) -> None:
        with self.cv:
            self.batches[rank] = batch

    def retire(self, rank: int) -> None:
        with self.cv:
            self.batches[rank] = None

    def _run(self, batch: _Batch, i: int) -> None:
        """Execute one claimed task (no locks held) and publish it."""
        try:
            result = batch.fns[i]()
        except BaseException as exc:  # noqa: BLE001 - owner re-raises
            with self.cv:
                batch.errors[i] = exc
                batch.done += 1
                self.cv.notify_all()
        else:
            with self.cv:
                batch.results[i] = result
                batch.done += 1
                self.cv.notify_all()

    def run_own(self, rank: int, batch: _Batch) -> None:
        """Owner path: drain the own batch front to back (racing with
        thieves for each claim)."""
        while True:
            with self.cv:
                i = batch.claim()
            if i is None:
                return
            self._run(batch, i)

    def steal_one(self, thief: int) -> bool:
        """Thief path: claim and run one task from another PE's batch
        (round-robin from ``thief + 1``).  Never blocks; returns whether
        a task was executed."""
        claimed: Optional[Tuple[_Batch, int]] = None
        with self.cv:
            for step in range(1, self.p):
                batch = self.batches[(thief + step) % self.p]
                if batch is None:
                    continue
                i = batch.claim()
                if i is not None:
                    claimed = (batch, i)
                    break
        if claimed is None:
            return False
        self._run(*claimed)
        return True


class _ThreadsShared:
    """State shared by all PEs of one threads-engine run."""

    def __init__(self, p: int, recv_timeout_s: float) -> None:
        self.p = p
        self.recv_timeout_s = recv_timeout_s
        self.cv = threading.Condition()
        #: per-(src, dst, tag) FIFO channels
        self.mail: Dict[Tuple[int, int, int], Deque[Any]] = {}
        #: collective rendezvous rounds: id -> {slots, deposited, read}
        self.rounds: Dict[int, Dict[str, Any]] = {}
        self.failure: Optional[BaseException] = None
        self.pool = _StealPool(p)

    def abort(self, exc: BaseException) -> None:
        """First failure wins; wake every blocked PE so the run unwinds."""
        with self.cv:
            if self.failure is None:
                self.failure = exc
            self.cv.notify_all()
        with self.pool.cv:
            self.pool.cv.notify_all()

    def pending_for(self, dst: int) -> List[Tuple[int, int, int]]:
        """(src, tag, count) of buffered messages addressed to ``dst``."""
        with self.cv:
            return sorted(
                (src, tag, len(q))
                for (src, d, tag), q in self.mail.items()
                if d == dst and q
            )


class ThreadsComm(CommBase):
    """Communicator of one PE thread (in-process FIFOs, no cost model)."""

    def __init__(self, rank: int, shared: _ThreadsShared,
                 policy: Optional[ResiliencePolicy] = None) -> None:
        super().__init__()
        self.rank = rank
        self.shared = shared
        self._round = 0  # this PE's collective counter
        self._injector: Optional[MessageFaultInjector] = None
        if policy is not None and policy.faults.has_message_faults:
            self._injector = MessageFaultInjector(
                policy.faults, rank, policy.fault_seed, self.attempt,
                self.counters,
            )

    @property
    def size(self) -> int:
        return self.shared.p

    # -- blocking with opportunistic stealing ---------------------------
    def _wait_stealing(self, ready: Callable[[], bool], deadline: float,
                       info: str) -> None:
        """Wait until ``ready()`` (evaluated under ``shared.cv``) holds,
        stealing batch tasks from other PEs instead of idling.  Raises
        :class:`DeadlockError` past ``deadline`` and :class:`_Aborted`
        once a peer has failed."""
        sh = self.shared
        while True:
            with sh.cv:
                if sh.failure is not None:
                    raise _Aborted()
                if ready():
                    return
            if sh.pool.steal_one(self.rank):
                self.count("work_steals")
                continue
            with sh.cv:
                if sh.failure is None and not ready():
                    if time.monotonic() >= deadline:
                        raise DeadlockError(
                            f"PE {self.rank}: {info} timed out after "
                            f"{sh.recv_timeout_s:g}s (engine=threads)"
                        )
                    sh.cv.wait(_STEAL_POLL_S)

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send (non-blocking buffered; channels are unbounded FIFOs).
        Injected message faults surface as send-side latency only."""
        if not (0 <= dest < self.size):
            raise ValueError(f"bad destination {dest}")
        injector = self._injector
        if injector is not None and injector.active:
            sleep_s, _copies = injector.plan_send()
            injector.apply_send_latency(sleep_s)
        self.bytes_sent += payload_nbytes(obj)
        self.messages_sent += 1
        if self.obs is not None:
            self.obs.on_send(self.rank, dest, tag, obj)
        sh = self.shared
        with sh.cv:
            sh.mail.setdefault((self.rank, dest, tag), deque()).append(obj)
            sh.cv.notify_all()

    def recv(self, source: int, tag: int = 0,
             timeout: Optional[float] = None) -> Any:
        """Blocking receive; steals refinement tasks while waiting."""
        if not (0 <= source < self.size):
            raise ValueError(f"bad source {source}")
        sh = self.shared
        if timeout is None:
            timeout = sh.recv_timeout_s
        obs = self.obs
        t0 = time.perf_counter() if obs is not None else 0.0
        with sh.cv:
            q = sh.mail.setdefault((source, self.rank, tag), deque())
        deadline = time.monotonic() + timeout
        try:
            self._wait_stealing(lambda: len(q) > 0, deadline,
                                f"recv(source={source}, tag={tag})")
        except DeadlockError:
            pending = sh.pending_for(self.rank)
            detail = (
                "; undelivered messages addressed to this PE: "
                + ", ".join(f"(src={s}, tag={t}) x{n}" for s, t, n in pending)
                if pending else "; no messages are queued for this PE"
            )
            raise DeadlockError(
                f"PE {self.rank}: recv(source={source}, tag={tag}) timed "
                f"out after {timeout:g}s (engine=threads){detail}"
            ) from None
        with sh.cv:
            # exactly one hook firing per successful user recv (stolen
            # map_batch tasks never touch the comm), keeping the causal
            # recv counter in lockstep with the sender's send counter
            if obs is not None:
                obs.on_recv_wait(source, self.rank, tag,
                                 time.perf_counter() - t0)
            return q.popleft()

    # -- collectives ----------------------------------------------------
    def _exchange(self, value: Any) -> List[Any]:
        """Rendezvous over round-numbered slot records.  Keying rounds by
        a per-PE counter (identical across PEs — collectives are globally
        ordered in an SPMD program) lets consecutive collectives coexist
        without a second barrier, as in the sequential engine."""
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
            if rec["deposited"] == sh.p:
                sh.cv.notify_all()
        deadline = time.monotonic() + sh.recv_timeout_s
        self._wait_stealing(lambda: rec["deposited"] == sh.p, deadline,
                            f"collective #{rid}")
        with sh.cv:
            out = list(rec["slots"])
            rec["read"] += 1
            if rec["read"] == sh.p:
                del sh.rounds[rid]
            return out

    # -- work stealing --------------------------------------------------
    def map_batch(self, tasks: List[Callable[[], Any]]) -> List[Any]:
        """Run independent zero-arg tasks, results in submission order.

        The batch is posted to the engine's steal pool: this PE drains it
        front to back while PEs blocked in collectives or receives steal
        tasks off the far end.  Tasks must not touch ``comm`` and must be
        safe to run concurrently with each other (the per-pair FM tasks
        of one color class qualify: they move disjoint node sets)."""
        fns = list(tasks)
        if len(fns) <= 1 or self.size == 1:
            return [fn() for fn in fns]
        # a task runs in a copy of this PE's context wherever it runs, so
        # kernel backend and tracer follow it onto a stealing thread
        fns = [partial(contextvars.copy_context().run, fn) for fn in fns]
        sh = self.shared
        pool = sh.pool
        batch = _Batch(fns)
        pool.post(self.rank, batch)
        try:
            pool.run_own(self.rank, batch)
            # wait for stolen stragglers to be published
            deadline = time.monotonic() + sh.recv_timeout_s
            with pool.cv:
                while batch.done < len(fns):
                    if sh.failure is not None:
                        raise _Aborted()
                    if time.monotonic() >= deadline:
                        raise DeadlockError(
                            f"PE {self.rank}: map_batch of {len(fns)} tasks "
                            f"timed out after {sh.recv_timeout_s:g}s "
                            f"(engine=threads; {batch.done} completed)"
                        )
                    pool.cv.wait(_STEAL_POLL_S)
        finally:
            pool.retire(self.rank)
        for err in batch.errors:
            if err is not None:
                raise err
        return batch.results


class ThreadsEngine(Engine):
    """One thread per PE over shared CSR views, with work stealing.

    >>> def program(comm):
    ...     return comm.allreduce(comm.rank)
    >>> ThreadsEngine(4).run(program).results
    [6, 6, 6, 6]
    """

    name = "threads"

    def __init__(self, p: int, recv_timeout_s: Optional[float] = None,
                 resilience: Optional[ResiliencePolicy] = None) -> None:
        super().__init__(p, recv_timeout_s)
        self.resilience = resilience

    def run(self, fn: Callable[..., Any], *args: Any,
            **kwargs: Any) -> EngineResult:
        shared = _ThreadsShared(self.p, self.recv_timeout_s)
        comms = [ThreadsComm(r, shared, self.resilience)
                 for r in range(self.p)]

        # Place every Graph argument in shared memory once and hand all
        # PEs the same zero-copy CSR view — the process engine's layout,
        # without the per-worker attach.
        blocks: List[SharedGraph] = []

        def share(obj: Any) -> Any:
            if isinstance(obj, Graph):
                sg = SharedGraph(obj)
                blocks.append(sg)
                return sg.graph()
            return obj

        args = tuple(share(a) for a in args)
        kwargs = {key: share(v) for key, v in kwargs.items()}

        results: List[Any] = [None] * self.p
        errors: List[Optional[BaseException]] = [None] * self.p
        walls = [0.0] * self.p

        def worker(rank: int) -> None:
            t0 = time.perf_counter()
            try:
                results[rank] = fn(comms[rank], *args, **kwargs)
            except _Aborted:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                shared.abort(exc)
            finally:
                walls[rank] = time.perf_counter() - t0

        try:
            if self.p == 1:
                worker(0)
            else:
                # every PE runs in a copy of the caller's context, so the
                # caller's kernel backend and tracer reach it
                threads = [
                    threading.Thread(
                        target=contextvars.copy_context().run,
                        args=(worker, r), daemon=True, name=f"repro-pe{r}")
                    for r in range(self.p)
                ]
                for t in threads:
                    t.start()
                # Unbounded, like the sequential engine: a PE computing
                # without communicating is slow, not stuck.  A real
                # deadlock ends in the recv/collective/map_batch deadlines.
                for t in threads:
                    t.join()
        finally:
            for sg in blocks:
                sg.cleanup()
        for err in errors:
            if err is not None:
                raise err
        if shared.failure is not None:  # pragma: no cover - defensive
            raise shared.failure
        return EngineResult(
            results=results,
            makespan=max(walls),        # wall clock of the slowest PE
            clocks=list(walls),
            bytes_sent=sum(c.bytes_sent for c in comms),
            messages_sent=sum(c.messages_sent for c in comms),
            phase_times=[dict(c.phase_times) for c in comms],
            counters=[dict(c.counters) for c in comms],
            obs=[c.obs.export() if c.obs is not None else None
                 for c in comms],
        )

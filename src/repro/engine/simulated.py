"""Simulated engine: the sequential scheduler plus a cost clock.

Reproduces the paper's Figure 3 in *simulated* time.  Each virtual PE
carries a :class:`Clock` advanced only by
:class:`~repro.parallel.costmodel.MachineModel` charges on the program's
own operations: ``compute(w)`` adds ``compute_time(w)``; ``send`` stamps
``clock + message_time(nbytes)`` and ``recv`` syncs to that arrival;
every collective syncs all clocks to the latest participant, then
charges ``collective_time(p, nbytes)`` (twice for ``alltoall``).
Collectives the program replays locally instead of exchanging reach the
clock through ``model_collectives``, which syncs and charges the same
way without sending anything; ``model_sendrecv`` does the same for a
skipped point-to-point exchange.

The clocks are thus a pure function of the program, so this *is* the
token-passing :class:`~repro.engine.sequential.SequentialEngine` with
the clock layered on top: payloads, ``bytes_sent`` and comm matrices are
unchanged (arrival times ride in a FIFO beside each mailbox channel),
and deadlocks are detected structurally, with no receive timeout.
``makespan`` (max final clock) is simulated, not wall-clock, time.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from ..parallel.costmodel import DEFAULT_MACHINE, MachineModel, payload_nbytes
from .base import EngineResult
from .sequential import SequentialComm, SequentialEngine, _SeqShared

__all__ = ["Clock", "SimulatedComm", "SimulatedEngine"]


class Clock:
    """Per-PE simulated time in seconds."""

    def __init__(self) -> None:
        self.time = 0.0

    def advance(self, dt: float) -> None:
        self.time += max(0.0, dt)

    def sync_to(self, t: float) -> None:
        """Blocking operations cannot complete before their input arrives."""
        self.time = max(self.time, t)


class SimulatedComm(SequentialComm):
    """A sequential-engine communicator that charges the cost model."""

    def __init__(self, rank: int, shared: _SeqShared, machine: MachineModel,
                 arrivals: Dict[Tuple[int, int, int], Deque[float]]) -> None:
        super().__init__(rank, shared)
        self.machine = machine
        self.clock = Clock()
        self._arrivals = arrivals  # shared by all PEs of the run

    def compute(self, work_units: float) -> None:
        """Charge local compute to the simulated clock."""
        self.clock.advance(self.machine.compute_time(work_units))

    # -- point to point -------------------------------------------------
    # Only the token holder runs, so the arrival FIFOs need no lock.
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        sent_before = self.bytes_sent
        super().send(obj, dest, tag)
        arrival = self.clock.time + self.machine.message_time(
            self.bytes_sent - sent_before)
        self._arrivals.setdefault((self.rank, dest, tag),
                                  deque()).append(arrival)

    def recv(self, source: int, tag: int = 0,
             timeout: Optional[float] = None) -> Any:
        obj = super().recv(source, tag, timeout)
        self.clock.sync_to(
            self._arrivals[(source, self.rank, tag)].popleft())
        return obj

    # -- collectives ----------------------------------------------------
    def _exchange(self, value: Any) -> List[Any]:
        """Rendezvous that also syncs every clock to the latest one."""
        pairs = super()._exchange((value, self.clock.time))
        self.clock.sync_to(max(t for _, t in pairs))
        return [v for v, _ in pairs]

    def _charge(self, nbytes: int, factor: int = 1) -> None:
        self.clock.advance(
            self.machine.collective_time(self.size, nbytes) * factor)

    def model_collectives(
        self, ops: Callable[[], Iterable[Tuple[float, int, int]]],
    ) -> None:
        """Advance the clock exactly as the exchanged collectives would:
        a clock-only rendezvous (no payload, unrecorded) per op."""
        for work, nbytes, factor in ops():
            self.compute(work)
            self._exchange(None)
            self._charge(nbytes, factor)

    def model_sendrecv(self, peer: int, tag: int,
                       cost: Callable[[], Tuple[float, int]]) -> None:
        """Advance the clocks exactly as ``sendrecv`` of ``nbytes``
        followed by ``compute(work)`` would: the arrival times travel as
        clock-only mailbox entries (no payload, unbooked, unrecorded),
        so ``tag`` must carry no real message."""
        work, nbytes = cost()
        if peer != self.rank:
            if self.rank > peer:
                self.clock.sync_to(self._take(peer, tag))
            self._post(peer, tag, self.clock.time
                       + self.machine.message_time(nbytes))
            if self.rank < peer:
                self.clock.sync_to(self._take(peer, tag))
        self.compute(work)

    def barrier(self) -> None:
        super().barrier()
        self._charge(0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        out = super().bcast(obj, root)
        self._charge(payload_nbytes(out))
        return out

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        out = super().gather(obj, root)
        self._charge(payload_nbytes(obj))
        return out

    def allgather(self, obj: Any) -> List[Any]:
        out = super().allgather(obj)
        self._charge(payload_nbytes(obj))
        return out

    def allreduce(self, value: Any,
                  op: Optional[Callable[[Any, Any], Any]] = None) -> Any:
        out = super().allreduce(value, op)
        self._charge(payload_nbytes(value))
        return out

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        out = super().alltoall(objs)
        self._charge(max((payload_nbytes(o) for o in objs), default=0),
                     factor=2)
        return out


class SimulatedEngine(SequentialEngine):
    """Token-passing virtual PEs + LogP-style simulated time.

    >>> def program(comm):
    ...     return comm.allreduce(comm.rank)
    >>> SimulatedEngine(4).run(program).results
    [6, 6, 6, 6]
    """

    name = "sim"

    def __init__(self, p: int, recv_timeout_s: Optional[float] = None,
                 machine: Optional[MachineModel] = None) -> None:
        super().__init__(p, recv_timeout_s)
        self.machine = machine if machine is not None else DEFAULT_MACHINE

    def _make_comms(self, shared: _SeqShared) -> List[SequentialComm]:
        arrivals: Dict[Tuple[int, int, int], Deque[float]] = {}
        return [SimulatedComm(r, shared, self.machine, arrivals)
                for r in range(self.p)]

    def _result(self, results: List[Any],
                comms: List[SequentialComm]) -> EngineResult:
        res = super()._result(results, comms)
        res.clocks = [c.clock.time  # type: ignore[attr-defined]
                      for c in comms]
        res.makespan = max(res.clocks)
        return res

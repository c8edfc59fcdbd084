"""The execution-engine abstraction: Comm protocol + Engine interface.

The KaPPa pipeline is written as SPMD programs — functions of the shape
``fn(comm, *args)`` that run once per virtual PE and communicate only
through their :class:`Comm` handle.  This module defines that contract
and nothing else, so every SPMD phase (parallel matching, initial
partitioning, distributed coloring, pairwise refinement) can depend on
the *protocol* without pulling in any particular runtime:

* :class:`Comm` — a :class:`typing.Protocol` with the mpi4py-like API
  every engine's communicator implements (``send``/``recv``/``sendrecv``,
  ``barrier``/``bcast``/``gather``/``allgather``/``allreduce``/
  ``alltoall``, plus ``derive_rng``/``compute``/``timed``);
* :class:`Engine` — the runtime strategy: run an SPMD function on ``p``
  PEs and return an :class:`EngineResult`;
* :class:`EngineResult` — per-PE return values plus runtime statistics
  (makespan, message/byte counts, and one metrics document merged over
  the PEs' registries).

Concrete engines live in sibling modules: sequential (deterministic
cooperative scheduling, one PE at a time), sim (the sequential scheduler
plus the simulated-time cost clock) and process (one OS process per PE).
This module must not import any of them — it is the dependency floor of
the engine layer.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from ..observability.registry import MetricsRegistry

__all__ = [
    "Comm",
    "Engine",
    "EngineResult",
    "CommBase",
    "DeadlockError",
    "EngineFailure",
    "DEFAULT_RECV_TIMEOUT_S",
    "RECV_TIMEOUT_ENV_VAR",
    "resolve_recv_timeout",
]

#: Fallback receive timeout (seconds) when neither ``KappaConfig.
#: recv_timeout_s`` nor the environment variable overrides it.  A
#: deadlocked SPMD program fails loudly in tests instead of hanging.
DEFAULT_RECV_TIMEOUT_S = 60.0

#: Environment variable overriding the default receive timeout.
RECV_TIMEOUT_ENV_VAR = "REPRO_RECV_TIMEOUT_S"


def resolve_recv_timeout(explicit: Optional[float] = None) -> float:
    """Receive-timeout resolution order: ``$REPRO_RECV_TIMEOUT_S`` →
    explicit argument (e.g. from ``KappaConfig.recv_timeout_s``) →
    :data:`DEFAULT_RECV_TIMEOUT_S`.

    The environment variable wins over the config value on purpose: it
    is the operator's emergency override — CI and chaos harnesses shrink
    or stretch the timeout for a whole test run without editing every
    config under test.
    """
    env = os.environ.get(RECV_TIMEOUT_ENV_VAR)
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"{RECV_TIMEOUT_ENV_VAR}={env!r} is not a number"
            ) from None
        if value <= 0:
            raise ValueError(f"{RECV_TIMEOUT_ENV_VAR} must be positive")
        return value
    if explicit is not None:
        if explicit <= 0:
            raise ValueError("recv timeout must be positive")
        return float(explicit)
    return DEFAULT_RECV_TIMEOUT_S


class DeadlockError(RuntimeError):
    """A blocking communication operation cannot complete — the SPMD
    program is deadlocked.  The message names the PE, the operation and
    its source/tag so the stuck channel can be identified directly."""


class EngineFailure(RuntimeError):
    """A PE failed for a non-algorithmic reason (process died, protocol
    violated).  Wraps enough context to identify the failing rank."""


@runtime_checkable
class Comm(Protocol):
    """One PE's communicator handle — the only interface SPMD phases may
    depend on.  All engines implement it; ``rank``/``size`` identify the
    PE, randomness must come from :meth:`derive_rng` so runs are pure
    functions of the master seed, and :meth:`compute` charges abstract
    work to engines that model cost (a no-op elsewhere)."""

    rank: int

    @property
    def size(self) -> int: ...

    def derive_rng(self, seed: int) -> np.random.Generator: ...

    def compute(self, work_units: float) -> None: ...

    def timed(self, name: str) -> ContextManager[None]: ...

    def model_collectives(
        self, ops: Callable[[], Iterable[Tuple[float, int, int]]],
    ) -> None: ...

    def model_sendrecv(self, peer: int, tag: int,
                       cost: Callable[[], Tuple[float, int]]) -> None: ...

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None: ...

    def recv(self, source: int, tag: int = 0,
             timeout: Optional[float] = None) -> Any: ...

    def sendrecv(self, obj: Any, peer: int, tag: int = 0) -> Any: ...

    # -- collectives ----------------------------------------------------
    def barrier(self) -> None: ...

    def bcast(self, obj: Any, root: int = 0) -> Any: ...

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]: ...

    def allgather(self, obj: Any) -> List[Any]: ...

    def allreduce(self, value: Any,
                  op: Optional[Callable[[Any, Any], Any]] = None) -> Any: ...

    def alltoall(self, objs: Sequence[Any]) -> List[Any]: ...


@dataclass
class EngineResult:
    """Outcome of one SPMD run on any engine.

    ``makespan`` is engine-specific: simulated seconds for the sim
    engine (the Figure 3 quantity), wall-clock seconds of the slowest PE
    for the process engine, and ``None`` for the sequential
    engine (whose execution is serialised, so a per-PE makespan is
    meaningless).
    ``metrics`` is the run's one metrics document: every PE's
    ``comm.metrics`` registry folded by
    :func:`~repro.observability.registry.merge_registry_docs` (counters
    sum, gauges keep the max over PEs — ``phase_<name>_max_s`` is the
    phase's critical-path wall time), plus the process engine's
    supervisor events (restarts, PEs lost, recovery time) as counters.
    """

    results: List[Any]
    makespan: Optional[float] = None
    clocks: List[float] = field(default_factory=list)
    bytes_sent: int = 0
    messages_sent: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: per-PE observability exports (``PeRecorder.export`` documents)
    #: when the run was observed; empty/None entries otherwise
    obs: List[Optional[Dict[str, Any]]] = field(default_factory=list)


class CommBase:
    """Shared communicator plumbing: seed derivation (identical across
    engines so partitions are bit-identical), the per-PE metrics
    registry (phase timers and named counters), and
    the rank-order collective folds expressed over a single primitive,
    ``_exchange(value) -> [value_0, …, value_{p-1}]``.

    Subclasses implement ``_exchange`` (and the point-to-point ops) and
    may override individual collectives when their runtime has a cheaper
    native form.
    """

    rank: int

    #: gang attempt number under a supervised engine (0 = first try);
    #: one-shot boundary faults key off this so restarts make progress
    attempt: int = 0

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.messages_sent = 0
        #: this PE's one metrics book: phase timers, named counters and,
        #: when observed, the recorder's receive-wait histogram
        self.metrics = MetricsRegistry()
        #: per-PE observability recorder (None by default — every hook
        #: site is a single ``is None`` test, so the off path is free)
        self.obs: Optional[Any] = None

    def attach_obs(self, recorder: Any) -> None:
        """Attach a per-PE observability recorder (see
        :func:`repro.observability.observe_comm`)."""
        self.obs = recorder

    def count(self, name: str, value: float = 1.0) -> None:
        """Bump a per-PE named counter in ``comm.metrics`` (summed over
        PEs into ``EngineResult.metrics``)."""
        self.metrics.counter(name).inc(value)

    def heartbeat(self, label: str) -> None:
        """Liveness signal at a phase boundary.  The base implementation
        is a no-op; supervised engines forward it to their parent so a
        wedged PE can be detected by silence."""

    def fault_event(self, name: str) -> None:
        """Record an injected-fault occurrence.  Counted locally by
        default; the process engine also pushes it to the supervisor
        *before* dying, so crash events survive a hard exit."""
        self.count(name)

    def derive_rng(self, seed: int) -> np.random.Generator:
        """Per-PE RNG: the paper runs identical components "each with a
        different seed for the random number generator"."""
        return np.random.default_rng((seed, self.rank))

    def compute(self, work_units: float) -> None:
        """Charge abstract compute.  Engines without a cost model treat
        this as a no-op; real time is measured, not modelled."""

    def model_collectives(
        self, ops: Callable[[], Iterable[Tuple[float, int, int]]],
    ) -> None:
        """Charge the cost of collectives the program replays locally
        instead of exchanging (every PE holds the inputs, so it computes
        the outcome itself).  ``ops()`` yields this PE's
        ``(work, nbytes, factor)`` per modelled collective: ``compute(work)``
        followed by a collective of an ``nbytes`` payload, ``factor`` 2
        for an ``alltoall``.  Nothing is sent and no message or byte is
        booked; engines without a cost model never call ``ops``."""

    def model_sendrecv(self, peer: int, tag: int,
                       cost: Callable[[], Tuple[float, int]]) -> None:
        """Charge the cost of a point-to-point exchange the program
        skips because ``peer`` already holds the payload: a ``sendrecv``
        of ``nbytes`` with ``peer`` on ``tag`` followed by
        ``compute(work)``, where ``(work, nbytes) = cost()`` (only the
        ``compute`` when ``peer`` is this PE).  Both sides call it.
        Nothing is sent and no message or byte is booked; engines
        without a cost model never call ``cost``."""

    @contextmanager
    def timed(self, name: str):
        """Accumulate wall-clock time of a program phase on this PE into
        the gauge ``phase_<name>_max_s`` (the max over PEs once merged).
        With an observability recorder attached, the block also opens a
        span that scopes comm-matrix phase attribution."""
        obs = self.obs
        if obs is not None:
            obs.phase_begin(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            gauge = self.metrics.gauge(f"phase_{name}_max_s")
            gauge.set(gauge.value + time.perf_counter() - t0)
            if obs is not None:
                obs.phase_end()

    # -- collective folds over _exchange --------------------------------
    def _exchange(self, value: Any) -> List[Any]:
        raise NotImplementedError

    def _exchange_recorded(self, value: Any) -> List[Any]:
        """``_exchange`` plus comm-matrix accounting when observed.

        The recorder books each collective under the deterministic
        rank-0 star model, so matrices agree across engines regardless
        of how the rendezvous physically happens."""
        obs = self.obs
        if obs is None:
            return self._exchange(value)
        t0 = time.perf_counter()
        slots = self._exchange(value)
        obs.on_collective(self.rank, len(slots), value, slots,
                          time.perf_counter() - t0)
        return slots

    def barrier(self) -> None:
        self._exchange_recorded(None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        return self._exchange_recorded(
            obj if self.rank == root else None)[root]

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        vals = self._exchange_recorded(obj)
        return vals if self.rank == root else None

    def allgather(self, obj: Any) -> List[Any]:
        return self._exchange_recorded(obj)

    def allreduce(self, value: Any,
                  op: Optional[Callable[[Any, Any], Any]] = None) -> Any:
        """All-reduce with a binary ``op`` (default: addition), folded in
        rank order on every PE, so non-associative ops cannot diverge
        between engines."""
        vals = self._exchange_recorded(value)
        acc = vals[0]
        for v in vals[1:]:
            acc = (acc + v) if op is None else op(acc, v)
        return acc

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        """Personalised all-to-all: ``objs[d]`` goes to PE ``d``."""
        if len(objs) != self.size:  # type: ignore[attr-defined]
            raise ValueError("alltoall needs one payload per PE")
        vals = self._exchange_recorded(list(objs))
        return [vals[src][self.rank]
                for src in range(self.size)]  # type: ignore[attr-defined]

    def sendrecv(self, obj: Any, peer: int, tag: int = 0) -> Any:
        """Exchange with a partner PE (both sides call this).  Rank order
        breaks the symmetry so engines with bounded channel buffers
        cannot deadlock on large payloads — and fixes the send/recv hook
        order per rank, so the causal event log (trace schema /3) is
        identical on every engine."""
        if peer == self.rank:
            raise ValueError("sendrecv with self")
        if self.rank < peer:
            self.send(obj, peer, tag)  # type: ignore[attr-defined]
            return self.recv(peer, tag)  # type: ignore[attr-defined]
        out = self.recv(peer, tag)  # type: ignore[attr-defined]
        self.send(obj, peer, tag)  # type: ignore[attr-defined]
        return out


class Engine(ABC):
    """A runtime strategy for SPMD programs.

    ``Engine(p).run(fn, *args)`` executes ``fn(comm, *args)`` on ``p``
    virtual PEs and collects per-PE results and statistics.  Engines are
    cheap to construct; all heavy lifting happens in :meth:`run`.
    """

    #: registry key ("sequential" | "sim" | "process")
    name: str = "abstract"

    def __init__(self, p: int, recv_timeout_s: Optional[float] = None) -> None:
        if p < 1:
            raise ValueError("need at least one PE")
        self.p = p
        self.recv_timeout_s = resolve_recv_timeout(recv_timeout_s)

    @abstractmethod
    def run(self, fn: Callable[..., Any], *args: Any,
            **kwargs: Any) -> EngineResult:
        """Execute ``fn(comm, *args, **kwargs)`` on every PE."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(p={self.p})"

"""Pluggable execution engines for SPMD partitioning programs.

Every phase of the partitioner is written once against the
:class:`~repro.engine.base.Comm` protocol; an :class:`~repro.engine.
base.Engine` decides *how* the ``p`` virtual PEs actually execute:

``sequential``
    Token-passing cooperative scheduling — one PE at a time, a schedule
    that depends only on the program.  Structural deadlock detection.
``sim``
    The sequential engine's token passing plus a LogP-style cost clock
    per PE; reports simulated parallel time (``makespan``).  Structural
    deadlock detection, no receive timeout.  The paper-reproduction
    default.
``process``
    One OS process per PE, shared-memory graph, pickle-free message
    pipes.  Real wall-clock parallelism on multi-core hosts.

All three produce bit-identical partitions for the same master seed.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from .base import (
    DEFAULT_RECV_TIMEOUT_S,
    RECV_TIMEOUT_ENV_VAR,
    Comm,
    CommBase,
    DeadlockError,
    Engine,
    EngineFailure,
    EngineResult,
    resolve_recv_timeout,
)
from .process import ProcessEngine
from .sequential import SequentialEngine
from .simulated import SimulatedEngine

__all__ = [
    "Comm",
    "CommBase",
    "DEFAULT_RECV_TIMEOUT_S",
    "DeadlockError",
    "Engine",
    "EngineFailure",
    "EngineResult",
    "ENGINES",
    "ProcessEngine",
    "RECV_TIMEOUT_ENV_VAR",
    "SequentialEngine",
    "SimulatedEngine",
    "get_engine",
    "resolve_recv_timeout",
]

ENGINES: Dict[str, Type[Engine]] = {
    SequentialEngine.name: SequentialEngine,
    SimulatedEngine.name: SimulatedEngine,
    ProcessEngine.name: ProcessEngine,
}


def get_engine(name: str, p: int, machine=None,
               recv_timeout_s: Optional[float] = None,
               resilience=None) -> Engine:
    """Instantiate the engine registered under ``name`` for ``p`` PEs.

    ``machine`` (a :class:`~repro.parallel.costmodel.MachineModel`) only
    applies to the simulated engine and is ignored by the others;
    ``resilience`` (a :class:`~repro.resilience.policy.ResiliencePolicy`)
    applies to the process engine (supervised gangs, wire faults) — the
    sequential and sim engines run their PEs in one OS process with no
    wire at all, so their fault injection happens inside the SPMD
    program instead.  ``recv_timeout_s`` bounds blocking waits on the
    process engine; the sequential and sim engines detect deadlocks
    structurally and never time out.
    """
    try:
        cls = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)}"
        ) from None
    if cls is SimulatedEngine:
        return SimulatedEngine(p, recv_timeout_s=recv_timeout_s,
                               machine=machine)
    if cls is ProcessEngine:
        return ProcessEngine(p, recv_timeout_s=recv_timeout_s,
                             resilience=resilience)
    return cls(p, recv_timeout_s=recv_timeout_s)

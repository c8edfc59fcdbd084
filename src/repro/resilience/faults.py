"""Deterministic fault injection: the ``FaultPlan`` spec and its runtime.

A chaos run is described by a comma-separated spec string (CLI
``--faults`` / ``KappaConfig.faults``) built from these clauses::

    pe1:crash@refine:level2    PE 1 dies at the named phase boundary
    pe0:hang@initial           PE 0 wedges (stops heartbeating) there
    drop=0.01                  1 % of messages are lost on the wire
    delay=5ms                  every message is delayed 5 ms in transit
    dup=0.02                   2 % of messages arrive twice
    pe2:drop=0.1               message faults can be scoped to one PE

Crash/hang clauses fire at the *phase boundaries* of the SPMD program
(the same points where checkpoints are written, see
:mod:`repro.resilience.runtime`) and only on the **first attempt** of a
supervised run — a restarted gang does not re-crash, exactly like a real
one-off node failure.  Message faults model an unreliable network *under*
a reliable transport: a "dropped" message is retransmitted after an RTO
(surfacing as extra latency plus a ``fault_messages_dropped`` counter), a
duplicate is discarded by the receiver's sequence-number filter.  All
randomness comes from a generator seeded by ``(master seed, rank,
attempt)``, so a chaos run is exactly reproducible and — because faults
only perturb *timing*, never payloads — produces a partition bit-identical
to the fault-free run whenever it completes.

Message faults act on the process engine's wire layer (the only engine
with a real network).  Crash/hang clauses work on every engine (raised
as :class:`InjectedCrash` where no hard process death is possible).
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..observability.registry import MetricsRegistry

__all__ = [
    "FaultClause",
    "FaultPlan",
    "FaultSpecError",
    "InjectedCrash",
    "MessageFaultInjector",
    "parse_duration",
]

#: fault kinds that fire at a phase boundary
BOUNDARY_KINDS = ("crash", "hang")
#: fault kinds that act on individual messages
MESSAGE_KINDS = ("drop", "delay", "dup")


class FaultSpecError(ValueError):
    """The ``--faults`` spec string cannot be parsed."""


class InjectedCrash(RuntimeError):
    """A deterministic injected failure (crash or hang) fired.  On the
    process engine the worker hard-exits instead, so this type only
    surfaces on engines without real process death."""


_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)(us|ms|s)?$")
_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}


def parse_duration(text: str) -> float:
    """Parse ``"5ms"`` / ``"0.2s"`` / ``"250us"`` / plain seconds."""
    m = _DURATION_RE.match(text.strip())
    if m is None:
        raise FaultSpecError(f"bad duration {text!r} (expected e.g. 5ms, 0.2s)")
    return float(m.group(1)) * _SCALE[m.group(2)]


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec."""

    kind: str                    # crash | hang | drop | delay | dup
    rank: Optional[int] = None   # None = applies to every PE
    phase: Optional[str] = None  # boundary key for crash/hang
    value: float = 0.0           # probability (drop/dup) or seconds (delay)

    def matches_rank(self, rank: int) -> bool:
        return self.rank is None or self.rank == rank


_PE_RE = re.compile(r"^pe(\d+):(.+)$")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of fault clauses."""

    clauses: Tuple[FaultClause, ...] = ()

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse a comma-separated spec string (``None``/empty → no faults)."""
        if not spec:
            return cls(())
        clauses = []
        for raw in spec.split(","):
            raw = raw.strip()
            if not raw:
                continue
            clauses.append(cls._parse_clause(raw))
        return cls(tuple(clauses))

    @staticmethod
    def _parse_clause(raw: str) -> FaultClause:
        rank: Optional[int] = None
        body = raw
        m = _PE_RE.match(raw)
        if m is not None:
            rank = int(m.group(1))
            body = m.group(2)
        if "@" in body:
            kind, phase = body.split("@", 1)
            if kind not in BOUNDARY_KINDS:
                raise FaultSpecError(
                    f"bad fault clause {raw!r}: {kind!r} is not a boundary "
                    f"fault (expected one of {BOUNDARY_KINDS})"
                )
            if not phase:
                raise FaultSpecError(
                    f"bad fault clause {raw!r}: missing phase key after '@'"
                )
            return FaultClause(kind=kind, rank=rank, phase=phase)
        if "=" in body:
            kind, value = body.split("=", 1)
            if kind not in MESSAGE_KINDS:
                raise FaultSpecError(
                    f"bad fault clause {raw!r}: {kind!r} is not a message "
                    f"fault (expected one of {MESSAGE_KINDS})"
                )
            if kind == "delay":
                return FaultClause(kind=kind, rank=rank,
                                   value=parse_duration(value))
            try:
                p = float(value)
            except ValueError:
                raise FaultSpecError(
                    f"bad fault clause {raw!r}: {value!r} is not a "
                    "probability"
                ) from None
            if not (0.0 <= p <= 1.0):
                raise FaultSpecError(
                    f"bad fault clause {raw!r}: probability must lie in "
                    "[0, 1]"
                )
            return FaultClause(kind=kind, rank=rank, value=p)
        raise FaultSpecError(
            f"bad fault clause {raw!r}: expected 'kind@phase' or "
            "'kind=value' (optionally prefixed 'peN:')"
        )

    def __bool__(self) -> bool:
        return bool(self.clauses)

    @property
    def has_message_faults(self) -> bool:
        """True when any clause perturbs the wire (all PEs must then use
        the sequence-numbered message envelope)."""
        return any(c.kind in MESSAGE_KINDS for c in self.clauses)

    def boundary_fault(self, rank: int, phase: str,
                       attempt: int) -> Optional[FaultClause]:
        """The crash/hang clause firing for ``rank`` at boundary
        ``phase``, if any.  Boundary faults are one-shot: they fire only
        on attempt 0 so a supervised restart can make progress."""
        if attempt != 0:
            return None
        for c in self.clauses:
            if (c.kind in BOUNDARY_KINDS and c.matches_rank(rank)
                    and c.phase == phase):
                return c
        return None

    def message_profile(self, rank: int) -> Tuple[float, float, float]:
        """``(drop_p, delay_s, dup_p)`` in effect for messages sent by
        ``rank`` (probabilities capped at 1, delays summed)."""
        drop = delay = dup = 0.0
        for c in self.clauses:
            if not c.matches_rank(rank):
                continue
            if c.kind == "drop":
                drop = min(1.0, drop + c.value)
            elif c.kind == "delay":
                delay += c.value
            elif c.kind == "dup":
                dup = min(1.0, dup + c.value)
        return drop, delay, dup


class MessageFaultInjector:
    """Per-PE runtime for message faults (used by the process engine).

    Decisions are drawn from ``default_rng((seed, 0xFA17, rank, attempt))``
    so the same run injects the same faults on the same messages.  Faults
    surface as *send-side latency* plus counters in the PE's metrics
    registry (``comm.metrics``): drop emulates a lost
    frame recovered by the reliable transport after one RTO, dup asks the
    sender to transmit the frame twice (the receiver's sequence filter
    discards the copy).
    """

    def __init__(self, plan: FaultPlan, rank: int, seed: int, attempt: int,
                 metrics: MetricsRegistry) -> None:
        self.drop_p, self.delay_s, self.dup_p = plan.message_profile(rank)
        self._rng = np.random.default_rng(
            (int(seed), 0xFA17, int(rank), int(attempt))
        )
        self.metrics = metrics
        #: retransmission timeout charged for a "dropped" frame
        self.rto_s = max(2.0 * self.delay_s, 0.02)

    @property
    def active(self) -> bool:
        return self.drop_p > 0 or self.delay_s > 0 or self.dup_p > 0

    def plan_send(self) -> Tuple[float, int]:
        """Decide the fate of the next outgoing message: returns
        ``(extra_latency_s, copies)``."""
        sleep_s = 0.0
        copies = 1
        if self.delay_s > 0:
            sleep_s += self.delay_s
            self.metrics.counter("fault_messages_delayed").inc()
        if self.drop_p > 0 and self._rng.random() < self.drop_p:
            sleep_s += self.rto_s
            self.metrics.counter("fault_messages_dropped").inc()
        if self.dup_p > 0 and self._rng.random() < self.dup_p:
            copies = 2
            self.metrics.counter("fault_messages_duplicated").inc()
        return sleep_s, copies

    def apply_send_latency(self, sleep_s: float) -> None:
        """Block the sender for the injected transit latency."""
        if sleep_s > 0:
            time.sleep(sleep_s)

"""Per-PE observability: span timelines and the communication matrix.

Every engine's communicator carries an ``obs`` slot that is ``None`` by
default — the hot paths pay one attribute load and an ``is None`` test,
nothing else.  When a run opts in (``KappaConfig.observe`` / the CLI's
``--trace-events``), :func:`observe_comm` attaches a :class:`PeRecorder`
per rank and the engine hooks start feeding it:

* :class:`SpanRecorder` — nested begin/end spans with *wall* and
  *process* (CPU) time.  Wall timestamps use ``time.time()`` so spans
  recorded in different OS processes (the process engine) line up on one
  timeline; Chrome ``trace_event`` export gives one track per PE.
* :class:`CommMatrix` — per ``(src, dst, tag, phase)`` message counts,
  payload bytes and receive-wait seconds.  Bytes are measured with the
  wire codec (:func:`wire_size`) on every engine, so the matrices of a
  sequential, simulated and process run of the same program agree cell
  for cell — and retry/duplicate traffic from the resilience layer shows
  up as extra messages on the same cells.
* the receive-wait histogram ``recv_wait_s``, kept in the PE's one
  metrics registry, the communicator's ``comm.metrics``.

Collectives are recorded through :meth:`PeRecorder.on_collective` under
the deterministic star model every engine's collectives reduce to (rank
0 gathers one contribution per worker and broadcasts the slot list), so
message counts are symmetric per pair by construction regardless of how
the engine physically rendezvoused.

Causal events (trace schema ``repro.trace/3``)
----------------------------------------------
On top of the aggregate matrix the recorder keeps a flat *event log*:
one record per user-level ``send``/``recv``/collective, stamped with the
PE-local program-order index ``i`` and a monotone logical sequence id
``seq`` per ``(peer, tag)`` channel.  Because every engine delivers
messages FIFO per ``(src, dst, tag)`` channel, the *n*-th receive on a
channel always matches the *n*-th send — so the sequence ids pair sends
with their receives without any wire-format change, and the resulting
causal DAG (:mod:`repro.observability.critpath`) is a pure function of
the SPMD program: identical across the sequential, sim and process
engines.  Duplicate frames injected by the resilience layer
(``copies > 1``) are *one* logical message and advance ``seq`` once.
Collectives are logged as one ``coll`` event per PE keyed by a per-PE
round counter; SPMD programs execute collectives in a single global
order, so equal round numbers identify the same collective on every PE.

At run end every PE's :meth:`PeRecorder.export` travels back through
``EngineResult.obs`` (the process engine sends it over the wire codec)
and the driver merges them with :func:`merge_pe_obs`; the metrics travel
separately, once, in ``EngineResult.metrics``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .registry import MetricsRegistry

__all__ = [
    "CommMatrix",
    "PeRecorder",
    "SpanRecorder",
    "merge_pe_obs",
    "observe_comm",
    "maybe_span",
    "wire_size",
    "COLLECTIVE_TAG",
]

#: matrix tag under which the modelled collective traffic is recorded
#: (user point-to-point tags are non-negative integers, so this cannot
#: collide)
COLLECTIVE_TAG = "coll"


def wire_size(obj: Any) -> int:
    """Encoded size of ``obj`` in bytes, measured with the pickle-free
    wire codec — the same measure on every engine, so per-pair byte
    totals agree across sequential/sim/process runs.  Payloads outside
    the codec's closed type set (possible on the in-process engines,
    which never serialise) fall back to the cost model's estimate."""
    from ..engine import wire

    try:
        return len(wire.encode(obj))
    except wire.WireError:
        from ..parallel.costmodel import payload_nbytes

        return int(payload_nbytes(obj))


class SpanRecorder:
    """Flat log of completed (possibly nested) spans on one PE.

    Each record carries the wall start time (``time.time()``, seconds),
    wall duration (``perf_counter`` delta) and CPU duration
    (``process_time`` delta), plus its nesting depth.
    """

    __slots__ = ("spans", "_stack")

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Tuple[str, float, float, float]] = []

    def begin(self, name: str) -> None:
        self._stack.append(
            (name, time.time(), time.perf_counter(), time.process_time())
        )

    def end(self) -> None:
        name, t0_wall, t0_perf, t0_cpu = self._stack.pop()
        self.spans.append({
            "name": name,
            "t0_s": t0_wall,
            "dur_s": time.perf_counter() - t0_perf,
            "cpu_s": time.process_time() - t0_cpu,
            "depth": len(self._stack),
        })

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()


class CommMatrix:
    """Per-(src, dst, tag, phase) traffic cells on one PE.

    ``messages``/``bytes`` are recorded by the *sending* PE and
    ``wait_s`` by the *receiving* PE; :func:`merge_pe_obs` sums the cells
    across PEs, so a merged cell holds all three views of that channel.
    """

    __slots__ = ("cells",)

    def __init__(self) -> None:
        #: (src, dst, tag, phase) -> [messages, bytes, wait_s]
        self.cells: Dict[Tuple[int, int, Any, str], List[float]] = {}

    def _cell(self, src: int, dst: int, tag: Any, phase: str) -> List[float]:
        key = (src, dst, tag, phase)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0, 0, 0.0]
        return cell

    def add_send(self, src: int, dst: int, tag: Any, phase: str,
                 nbytes: int, copies: int = 1) -> None:
        cell = self._cell(src, dst, tag, phase)
        cell[0] += copies
        cell[1] += nbytes * copies

    def add_wait(self, src: int, dst: int, tag: Any, phase: str,
                 seconds: float) -> None:
        self._cell(src, dst, tag, phase)[2] += seconds

    def export(self) -> List[Dict[str, Any]]:
        """Wire/JSON-ready records, deterministically ordered."""
        return [
            {"src": src, "dst": dst, "tag": tag, "phase": phase,
             "messages": int(msgs), "bytes": int(nbytes),
             "wait_s": float(wait)}
            for (src, dst, tag, phase), (msgs, nbytes, wait)
            in sorted(self.cells.items(), key=lambda kv: (
                kv[0][0], kv[0][1], str(kv[0][2]), kv[0][3]))
        ]


class PeRecorder:
    """One rank's observability bundle: spans + comm matrix + events.

    The engine hooks (``on_send`` / ``on_recv_wait`` / ``on_collective``)
    and the phase hooks (driven by ``comm.timed``) are only reached when
    a recorder is attached, so none of this costs anything by default.
    The receive-wait histogram goes into ``metrics``: ``comm.metrics``
    when :func:`observe_comm` attaches it, else a registry of its own.
    """

    enabled = True

    def __init__(self, rank: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.rank = rank
        self.spans = SpanRecorder()
        self.matrix = CommMatrix()
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._wait_hist = self.metrics.histogram(
            "recv_wait_s",
            buckets=(1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0),
        )
        self._phases: List[str] = []
        #: causal event log — one record per user send/recv/collective,
        #: in PE-local program order
        self.events: List[Dict[str, Any]] = []
        self._send_seq: Dict[Tuple[int, Any], int] = {}
        self._recv_seq: Dict[Tuple[int, Any], int] = {}
        self._coll_round = 0
        self.t0_s = time.time()
        self.t1_s: Optional[float] = None

    # -- phase / span hooks (comm.timed, maybe_span) --------------------
    @property
    def phase(self) -> str:
        return self._phases[-1] if self._phases else "run"

    def phase_begin(self, name: str) -> None:
        self._phases.append(name)
        self.spans.begin(name)

    def phase_end(self) -> None:
        self.spans.end()
        self._phases.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A nested span that also scopes comm-matrix phase attribution."""
        self.phase_begin(name)
        try:
            yield
        finally:
            self.phase_end()

    # -- comm hooks ------------------------------------------------------
    def on_send(self, src: int, dst: int, tag: Any, obj: Any,
                copies: int = 1) -> None:
        phase = self.phase
        self.matrix.add_send(src, dst, tag, phase, wire_size(obj),
                             copies=copies)
        # one *logical* message regardless of duplicate frames: seq pairs
        # this send with the matching FIFO receive on the other side
        key = (dst, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        self.events.append({
            "type": "send", "i": len(self.events), "src": src, "dst": dst,
            "tag": tag, "seq": seq, "phase": phase, "t_s": time.time(),
        })

    def on_recv_wait(self, src: int, dst: int, tag: Any,
                     seconds: float) -> None:
        phase = self.phase
        self.matrix.add_wait(src, dst, tag, phase, seconds)
        self._wait_hist.observe(seconds)
        # fires exactly once per successful user recv on every engine
        # (including zero-wait buffered hits), so the recv-side counter
        # walks the channel in lockstep with the sender's send counter
        key = (src, tag)
        seq = self._recv_seq.get(key, 0)
        self._recv_seq[key] = seq + 1
        self.events.append({
            "type": "recv", "i": len(self.events), "src": src, "dst": dst,
            "tag": tag, "seq": seq, "phase": phase, "t_s": time.time(),
            "wait_s": float(seconds),
        })

    def on_collective(self, rank: int, size: int, value: Any,
                      slots: Any, wait_s: float) -> None:
        """Record one collective under the rank-0 star model.

        Every engine's collectives fold a ``p``-slot exchange; physically
        that is a star over rank 0 on the process engine and a
        shared-memory rendezvous on the in-process engines.  Recording
        the *model* — each worker sends its contribution to rank 0 and
        receives the slot list back — keeps the matrices identical across
        engines and message counts symmetric per (i, 0) pair.
        """
        # the round counter advances even for degenerate single-PE
        # collectives so round numbers stay comparable across gang sizes
        rnd = self._coll_round
        self._coll_round = rnd + 1
        if size <= 1:
            return
        phase = self.phase
        self.events.append({
            "type": "coll", "i": len(self.events), "rank": rank,
            "round": rnd, "phase": phase, "t_s": time.time(),
            "wait_s": float(wait_s),
        })
        if rank == 0:
            share = wait_s / (size - 1)
            for src in range(1, size):
                self.matrix.add_wait(src, 0, COLLECTIVE_TAG, phase, share)
            result_bytes = wire_size(slots)
            for dst in range(1, size):
                self.matrix.add_send(0, dst, COLLECTIVE_TAG, phase,
                                     result_bytes)
        else:
            self.matrix.add_send(rank, 0, COLLECTIVE_TAG, phase,
                                 wire_size(value))
            self.matrix.add_wait(0, rank, COLLECTIVE_TAG, phase, wait_s)

    # -- export ----------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """Wire-codec-friendly snapshot shipped back to the driver."""
        self.t1_s = time.time()
        return {
            "pe": self.rank,
            "spans": list(self.spans.spans),
            "comm": self.matrix.export(),
            "events": list(self.events),
            "t0_s": float(self.t0_s),
            "t1_s": float(self.t1_s),
        }


def observe_comm(comm: Any, cfg: Any) -> None:
    """Attach a :class:`PeRecorder` to ``comm`` when the config opts in.

    Called once per PE at the top of the SPMD program; a no-op unless
    ``cfg.observe`` is truthy and the communicator supports attachment.
    """
    if not getattr(cfg, "observe", False):
        return
    attach = getattr(comm, "attach_obs", None)
    if attach is not None and getattr(comm, "obs", None) is None:
        attach(PeRecorder(comm.rank, getattr(comm, "metrics", None)))


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_CTX = _NullContext()


def maybe_span(comm: Any, name: str):
    """A nested observability span on ``comm``, or a shared no-op context
    when observability is off — safe to use in SPMD hot paths."""
    obs = getattr(comm, "obs", None)
    return _NULL_CTX if obs is None else obs.span(name)


def merge_pe_obs(pe_docs: List[Optional[Dict[str, Any]]],
                 ) -> Optional[Dict[str, Any]]:
    """Merge per-PE :meth:`PeRecorder.export` documents into the run-level
    observability document (``spans`` / ``comm_matrix`` / ``events``;
    the driver adds the run's ``metrics``)."""
    docs = [d for d in pe_docs if d]
    if not docs:
        return None
    spans: List[Dict[str, Any]] = []
    for doc in docs:
        pe = int(doc.get("pe", 0))
        for span in doc.get("spans", ()):
            spans.append({**span, "pe": pe})
    spans.sort(key=lambda s: (s.get("t0_s", 0.0), s.get("pe", 0)))
    events: List[Dict[str, Any]] = []
    clocks: List[Dict[str, Any]] = []
    for doc in docs:
        pe = int(doc.get("pe", 0))
        for rec in doc.get("events", ()):
            events.append({**rec, "pe": pe})
        if doc.get("t0_s") is not None:
            clocks.append({"pe": pe, "t0_s": float(doc["t0_s"]),
                           "t1_s": float(doc.get("t1_s") or doc["t0_s"])})
    events.sort(key=lambda e: (e.get("pe", 0), e.get("i", 0)))
    clocks.sort(key=lambda c: c["pe"])
    cells: Dict[Tuple[int, int, Any, str], List[float]] = {}
    for doc in docs:
        for rec in doc.get("comm", ()):
            key = (rec["src"], rec["dst"], rec["tag"], rec["phase"])
            cell = cells.setdefault(key, [0, 0, 0.0])
            cell[0] += rec.get("messages", 0)
            cell[1] += rec.get("bytes", 0)
            cell[2] += rec.get("wait_s", 0.0)
    comm_matrix = [
        {"src": src, "dst": dst, "tag": tag, "phase": phase,
         "messages": int(m), "bytes": int(b), "wait_s": float(w)}
        for (src, dst, tag, phase), (m, b, w)
        in sorted(cells.items(),
                  key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]),
                                  kv[0][3]))
    ]
    return {"pes": len(docs), "spans": spans, "comm_matrix": comm_matrix,
            "events": {"records": events, "clocks": clocks}}

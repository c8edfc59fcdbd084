"""Trace exporters: Chrome ``trace_event`` JSON, Prometheus, JSONL journal.

All exporters consume the normalised ``repro.trace/3`` document (see
:mod:`repro.observability.trace_io`) so they work on fresh runs and on
upgraded ``/1`` files alike.

* :func:`chrome_trace` — the Chrome/Perfetto ``trace_event`` format
  (``{"traceEvents": [...]}``): one named track (``tid``) per PE built
  from the per-PE observability spans, with the driver's phase tree as an
  extra track when wall timestamps are available.  Load the file at
  https://ui.perfetto.dev or ``chrome://tracing``.
* :func:`prometheus_exposition` — the trace's ``metrics`` section in
  Prometheus text exposition format 0.0.4.
* :func:`journal_record` / :func:`append_journal` — one JSON line per
  run (meta + quality + scalar metrics), the longitudinal store that
  ``repro compare`` diffs across commits.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from .registry import prometheus_text
from .trace_io import load_trace

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_exposition",
    "journal_record",
    "append_journal",
    "read_journal",
]

#: Chrome trace pid used for all repro tracks (one logical process)
_PID = 0

#: tid of the driver's phase-tree track (PE tracks use ``pe + 1``)
_DRIVER_TID = 0


def _meta_event(tid: int, name: str) -> Dict[str, Any]:
    return {"ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "args": {"name": name}}


def chrome_trace(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from a trace document.

    Timestamps are microseconds relative to the earliest recorded wall
    time, so the file stays small and Perfetto's timeline starts at ~0.
    Complete ("X") events carry the span duration; every PE gets its own
    named thread track.
    """
    doc = load_trace(doc)
    spans = doc.get("spans") or []
    phase_spans = _walk_phases(doc.get("phases") or [])
    t0s = [s["t0_s"] for s in spans if "t0_s" in s]
    t0s += [s["t0_s"] for s in phase_spans if "t0_s" in s]
    origin = min(t0s) if t0s else 0.0

    events: List[Dict[str, Any]] = []
    pes = sorted({int(s.get("pe", 0)) for s in spans})
    for pe in pes:
        events.append(_meta_event(pe + 1, f"PE {pe}"))
    if phase_spans:
        events.append(_meta_event(_DRIVER_TID, "driver"))

    for span in spans:
        if "t0_s" not in span:
            continue
        events.append({
            "ph": "X",
            "name": span.get("name", "?"),
            "pid": _PID,
            "tid": int(span.get("pe", 0)) + 1,
            "ts": (span["t0_s"] - origin) * 1e6,
            "dur": float(span.get("dur_s", 0.0)) * 1e6,
            "args": {
                "cpu_s": span.get("cpu_s"),
                "depth": span.get("depth", 0),
            },
        })
    for span in phase_spans:
        if "t0_s" not in span:
            continue
        events.append({
            "ph": "X",
            "name": span["name"],
            "pid": _PID,
            "tid": _DRIVER_TID,
            "ts": (span["t0_s"] - origin) * 1e6,
            "dur": float(span.get("elapsed_s", 0.0)) * 1e6,
            "args": {"depth": span["depth"]},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": doc.get("schema"),
                      "meta": doc.get("meta", {})},
    }


def _walk_phases(phases: List[Dict[str, Any]],
                 depth: int = 0) -> List[Dict[str, Any]]:
    """Flatten the tracer's nested phase tree, keeping wall ``t0_s``."""
    out: List[Dict[str, Any]] = []
    for phase in phases:
        rec = {"name": phase.get("name", "?"),
               "elapsed_s": phase.get("elapsed_s", 0.0),
               "depth": depth}
        if "t0_s" in phase:
            rec["t0_s"] = phase["t0_s"]
        out.append(rec)
        out.extend(_walk_phases(phase.get("children") or [], depth + 1))
    return out


def write_chrome_trace(doc: Dict[str, Any], path: str) -> None:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(doc), fh, indent=1)
        fh.write("\n")


def prometheus_exposition(doc: Dict[str, Any],
                          prefix: str = "repro_") -> str:
    """The trace's merged ``metrics`` section as Prometheus text."""
    return prometheus_text(load_trace(doc).get("metrics"), prefix=prefix)


def journal_record(result: Any, meta: Optional[Dict[str, Any]] = None,
                   ) -> Dict[str, Any]:
    """One JSONL journal line for a finished :class:`KappaResult`; its
    run numbers are the ``metrics`` book, written once."""
    rec: Dict[str, Any] = {
        "schema": "repro.journal/1",
        "ts": time.time(),
        "cut": float(result.cut),
        "balance": float(result.balance),
        "time_s": float(result.time_s),
        "levels": int(result.levels),
    }
    if result.sim_time_s is not None:
        rec["sim_time_s"] = float(result.sim_time_s)
    if result.metrics:
        rec["metrics"] = result.metrics
    if meta:
        rec["meta"] = dict(meta)
    return rec


def append_journal(path: str, record: Dict[str, Any]) -> None:
    """Append one record as a JSON line (creates the file if absent)."""
    with open(path, "a") as fh:
        json.dump(record, fh,
                  default=lambda o: o.item() if hasattr(o, "item") else o)
        fh.write("\n")


def read_journal(path: str) -> List[Dict[str, Any]]:
    """All records of a JSONL journal file."""
    out: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out

"""Run-to-run comparison: trace files, run journals, analysis and
benchmark records.

``python -m repro compare BASE NEW`` loads two documents of the same
kind — trace JSON (any schema version), a JSONL run journal, a
``repro.analysis/1`` document or a ``repro.bench*`` record such as
``BENCH_objectives.json`` — extracts the comparable scalar metrics from
each, and flags every metric whose relative change exceeds a threshold
*in the bad direction*.  Direction is metric-aware: times, byte/message
volumes and cut sizes regress upward; speedups and throughput regress
downward.

CI wires this in as a non-blocking check against the committed
``BASELINE_analysis.json``: a flagged regression annotates the run
without failing it (perf on shared runners is noisy), while
``--require-provenance`` *does* fail hard when the new file lacks the
``git_sha``/``timestamp`` provenance meta — numbers without provenance
cannot be trended.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .critpath import ANALYSIS_SCHEMA
from .trace_io import SCHEMA_V1, SCHEMA_V2, SCHEMA_V3, load_trace

__all__ = [
    "CompareError",
    "Delta",
    "Comparison",
    "load_document",
    "compare_documents",
    "compare_files",
    "assert_provenance",
    "format_comparison",
]

#: substrings marking a metric where *larger is better* (checked before
#: the lower-is-better list, so e.g. ``throughput_rps`` is not caught by
#: its ``_s`` suffix)
_HIGHER_BETTER = ("speedup", "throughput", "hit_ratio")

#: substrings marking a metric where *smaller is better* (everything not
#: matched by either list is reported but never flagged)
_LOWER_BETTER = (
    "_s", "time", "wait", "bytes", "messages", "cut", "makespan",
    "median", "wall", "recovery", "violations", "mapping_cost",
    "imbalance",
)


class CompareError(ValueError):
    """The inputs cannot be compared (unknown kind, kind mismatch)."""


@dataclass
class Delta:
    """One metric's change between the base and new document."""

    metric: str
    base: float
    new: float
    direction: str  # "lower" | "higher" | "info"
    regression: bool = False

    @property
    def rel_change(self) -> Optional[float]:
        if self.base == 0:
            return None
        return (self.new - self.base) / abs(self.base)


@dataclass
class Comparison:
    """The full diff of two documents of the same kind."""

    kind: str
    threshold: float
    deltas: List[Delta] = field(default_factory=list)
    only_base: List[str] = field(default_factory=list)
    only_new: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _direction(metric: str) -> str:
    low = metric.lower()
    if any(tok in low for tok in _HIGHER_BETTER):
        return "higher"
    if any(tok in low for tok in _LOWER_BETTER):
        return "lower"
    return "info"


def _flag(delta: Delta, threshold: float) -> bool:
    if delta.direction == "info":
        return False
    if delta.base == 0:
        # a metric appearing from zero regresses only in the bad direction
        return (delta.new > 0 if delta.direction == "lower"
                else delta.new < 0)
    rel = (delta.new - delta.base) / abs(delta.base)
    return rel > threshold if delta.direction == "lower" \
        else rel < -threshold


# ---------------------------------------------------------------------------
# loading + kind detection
# ---------------------------------------------------------------------------

def load_document(path: str) -> Tuple[str, Any]:
    """Load ``path`` and classify it:
    ("trace"|"journal"|"bench"|"analysis", doc)."""
    if path.endswith(".jsonl"):
        from .exporters import read_journal

        records = read_journal(path)
        if not records:
            raise CompareError(f"{path}: empty journal")
        return "journal", records
    with open(path) as fh:
        first = fh.read(1)
        fh.seek(0)
        if first not in ("{", "["):
            raise CompareError(f"{path}: not a JSON document")
        try:
            doc = json.load(fh)
        except json.JSONDecodeError:
            # JSONL journals are also valid one-object-per-line files
            from .exporters import read_journal

            records = read_journal(path)
            if records:
                return "journal", records
            raise CompareError(f"{path}: not valid JSON") from None
    if isinstance(doc, list):
        return "journal", doc
    schema = doc.get("schema", "")
    if schema in (SCHEMA_V1, SCHEMA_V2, SCHEMA_V3):
        return "trace", load_trace(doc)
    if schema == ANALYSIS_SCHEMA:
        return "analysis", doc
    if schema.startswith("repro.bench"):
        return "bench", doc
    if schema.startswith("repro.journal"):
        return "journal", [doc]
    if "traceEvents" in doc:
        raise CompareError(
            f"{path}: is a Chrome trace_event export; compare the "
            "repro trace JSON it was derived from"
        )
    raise CompareError(f"{path}: unrecognised document (schema={schema!r})")


# ---------------------------------------------------------------------------
# metric extraction per kind
# ---------------------------------------------------------------------------

def _trace_metrics(doc: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, value in (doc.get("counters") or {}).items():
        out[f"counters.{name}"] = float(value)
    metrics = doc.get("metrics") or {}
    for kind in ("counters", "gauges"):
        for name, value in (metrics.get(kind) or {}).items():
            out[f"metrics.{name}"] = float(value)
    levels = [lvl for lvl in doc.get("levels") or []
              if isinstance(lvl, dict) and "cut" in lvl]
    if levels:
        out["final_cut"] = float(levels[-1]["cut"])
    comm = doc.get("comm_matrix") or []
    if comm:
        out["comm.bytes_total"] = float(sum(c.get("bytes", 0) for c in comm))
        out["comm.messages_total"] = float(
            sum(c.get("messages", 0) for c in comm))
        out["comm.wait_s_total"] = float(
            sum(c.get("wait_s", 0.0) for c in comm))
    inv = doc.get("invariants") or {}
    if "violations" in inv:
        out["invariant_violations"] = float(len(inv["violations"]))
    return out


def _journal_metrics(records: List[Dict[str, Any]]) -> Dict[str, float]:
    rec = records[-1]  # the latest run is the comparison subject
    out: Dict[str, float] = {}
    for name in ("cut", "balance", "time_s", "sim_time_s"):
        if rec.get(name) is not None:
            out[name] = float(rec[name])
    for name, value in (rec.get("stats") or {}).items():
        out[f"stats.{name}"] = float(value)
    metrics = rec.get("metrics") or {}
    for kind in ("counters", "gauges"):
        for name, value in (metrics.get(kind) or {}).items():
            out[f"metrics.{name}"] = float(value)
    return out


def _bench_metrics(doc: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    schema = doc.get("schema", "")
    for rec in doc.get("records") or []:
        if "objective" in rec:  # bench_objectives rows
            key = f"{rec.get('graph', '?')}.{rec['objective']}"
            for name in ("cut", "mapping_cost", "max_imbalance", "wall_s"):
                if rec.get(name) is not None:
                    out[f"{key}.{name}"] = float(rec[name])
    if not out:
        # an unrecognised bench schema still compares generically: every
        # numeric field, per record and top-level (new BENCH files must
        # not break `repro compare` before it learns their shape)
        for i, rec in enumerate(doc.get("records") or []):
            label = str(rec.get("name") or rec.get("id") or i)
            for name, value in rec.items():
                if _is_number(value):
                    out[f"{label}.{name}"] = float(value)
        for name, value in doc.items():
            if _is_number(value):
                out[name] = float(value)
    if not out:
        raise CompareError(f"no comparable records in {schema!r} document")
    return out


def _analysis_metrics(doc: Dict[str, Any]) -> Dict[str, float]:
    """`repro.analysis/1` documents (repro analyze --json): the headline
    scalars plus per-PE and per-phase wait fractions.  Every name lands
    in the lower-is-better lists by its existing substrings (``_s``,
    ``wait``, ``imbalance``), so critical-path growth and rising wait
    fractions flag as regressions with no new direction rules."""
    out: Dict[str, float] = {}
    for name in ("critical_path_s", "wall_s", "wait_fraction",
                 "load_imbalance"):
        if _is_number(doc.get(name)):
            out[name] = float(doc[name])
    for row in doc.get("per_pe") or []:
        key = f"pe{row.get('pe', '?')}"
        for name in ("wall_s", "recv_wait_s", "coll_wait_s",
                     "wait_fraction"):
            if _is_number(row.get(name)):
                out[f"{key}.{name}"] = float(row[name])
    for row in doc.get("per_phase") or []:
        key = f"phase.{row.get('phase', '?')}"
        for name in ("recv_wait_s", "coll_wait_s", "wait_fraction"):
            if _is_number(row.get(name)):
                out[f"{key}.{name}"] = float(row[name])
    if not out:
        raise CompareError("no comparable metrics in analysis document")
    return out


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_EXTRACTORS = {
    "trace": _trace_metrics,
    "journal": _journal_metrics,
    "bench": _bench_metrics,
    "analysis": _analysis_metrics,
}


# ---------------------------------------------------------------------------
# the diff
# ---------------------------------------------------------------------------

def compare_documents(kind: str, base: Any, new: Any,
                      threshold: float = 0.25) -> Comparison:
    """Diff two same-kind documents; flag bad-direction changes beyond
    ``threshold`` (relative)."""
    extract = _EXTRACTORS[kind]
    base_metrics = extract(base)
    new_metrics = extract(new)
    cmp = Comparison(kind=kind, threshold=threshold)
    for name in sorted(set(base_metrics) | set(new_metrics)):
        if name not in base_metrics:
            cmp.only_new.append(name)
            continue
        if name not in new_metrics:
            cmp.only_base.append(name)
            continue
        delta = Delta(metric=name, base=base_metrics[name],
                      new=new_metrics[name], direction=_direction(name))
        delta.regression = _flag(delta, threshold)
        cmp.deltas.append(delta)
    return cmp


def compare_files(base_path: str, new_path: str,
                  threshold: float = 0.25) -> Comparison:
    """Load, classify and diff two files (kinds must match)."""
    base_kind, base = load_document(base_path)
    new_kind, new = load_document(new_path)
    if base_kind != new_kind:
        raise CompareError(
            f"cannot compare a {base_kind} file ({base_path}) against a "
            f"{new_kind} file ({new_path})"
        )
    return compare_documents(base_kind, base, new, threshold)


def assert_provenance(path: str) -> Dict[str, Any]:
    """Require the document at ``path`` to carry provenance meta
    (``git_sha`` + ``timestamp``); returns the meta on success."""
    kind, doc = load_document(path)
    if kind == "journal":
        meta = (doc[-1].get("meta") or {}) if doc else {}
    else:
        meta = doc.get("meta") or {}
    missing = [key for key in ("git_sha", "timestamp") if not meta.get(key)]
    if missing:
        raise CompareError(
            f"{path}: provenance meta missing {missing} — regenerate with "
            "a current benchmark script (repro.provenance)"
        )
    return meta


def format_comparison(cmp: Comparison, base_path: str = "base",
                      new_path: str = "new",
                      show_all: bool = False) -> str:
    """Human-readable diff table; regressions always shown first."""
    lines = [
        f"compare ({cmp.kind}): {base_path} -> {new_path} "
        f"(threshold {cmp.threshold:.0%})"
    ]
    rows = cmp.regressions + [
        d for d in cmp.deltas if not d.regression and show_all
    ]
    if not cmp.deltas:
        lines.append("  no common metrics")
    for d in rows:
        rel = d.rel_change
        rel_txt = f"{rel:+.1%}" if rel is not None else "n/a"
        mark = "REGRESSION" if d.regression else "ok"
        lines.append(
            f"  [{mark}] {d.metric}: {d.base:g} -> {d.new:g} ({rel_txt}, "
            f"{d.direction}-is-better)"
        )
    if not cmp.regressions:
        lines.append(
            f"  {len(cmp.deltas)} metrics compared, no regression beyond "
            f"{cmp.threshold:.0%}"
        )
    for name in cmp.only_base:
        lines.append(f"  [gone] {name} (only in base)")
    for name in cmp.only_new:
        lines.append(f"  [new] {name} (only in new)")
    return "\n".join(lines)

"""Cross-PE telemetry: span timelines, comm matrix, metrics, reports.

The layer has three recording primitives and four consumers:

* recording — :class:`SpanRecorder` (nested wall/CPU spans per PE),
  :class:`CommMatrix` (messages/bytes/recv-wait per (src, dst, tag,
  phase)) and :class:`MetricsRegistry` (counters/gauges/histograms),
  bundled per rank by :class:`PeRecorder` and attached to a
  communicator with :func:`observe_comm`;
* export — Chrome ``trace_event`` JSON (:func:`chrome_trace`, one track
  per PE, loadable in Perfetto), Prometheus text exposition
  (:func:`prometheus_exposition`) and the JSONL run journal
  (:func:`append_journal`);
* reporting — ``python -m repro report`` (:func:`render_report`, a
  single-file HTML/markdown run report) and ``python -m repro compare``
  (:func:`compare_files`, regression flagging between two runs);
* schema — trace documents are ``repro.trace/3`` (causal ``events``
  log on top of spans/comm_matrix/metrics); :func:`load_trace` also
  reads ``/1`` and ``/2`` files and upgrades them;
* analysis — :func:`analyze_trace` / ``python -m repro analyze`` build
  the cross-PE event DAG (:func:`build_event_dag`), extract the
  critical path and attribute wall time into compute / blocked-on-recv
  / collective-wait buckets (``repro.analysis/1`` documents
  ``compare_files`` can diff).

Everything is off by default: engine communicators carry ``obs = None``
and every hook site is a single ``is None`` test, so the hot paths pay
nothing unless ``KappaConfig.observe`` / ``--trace-events`` opts in
(``tests/observability/test_pipeline_obs.py`` checks that such a run
never creates a recorder; perfbench's ``tracing.overhead_s`` measures
the cost of opting in).
"""

from __future__ import annotations

import multiprocessing

from .compare import (
    CompareError,
    Comparison,
    Delta,
    assert_provenance,
    compare_documents,
    compare_files,
    format_comparison,
)
from .critpath import (
    ANALYSIS_SCHEMA,
    EventDag,
    analyze_trace,
    build_event_dag,
    critical_path,
    format_analysis,
)
from .exporters import (
    append_journal,
    chrome_trace,
    journal_record,
    prometheus_exposition,
    read_journal,
    write_chrome_trace,
)
from .recorder import (
    COLLECTIVE_TAG,
    CommMatrix,
    PeRecorder,
    SpanRecorder,
    maybe_span,
    merge_pe_obs,
    observe_comm,
    wire_size,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registry_docs,
    prometheus_text,
)
from .report import render_html_report, render_markdown_report, render_report
from .trace_io import (
    SCHEMA_V1,
    SCHEMA_V2,
    SCHEMA_V3,
    TRACE_SCHEMA,
    TraceSchemaError,
    absent_sections,
    load_trace,
    load_trace_file,
    upgrade_trace,
)

__all__ = [
    # recorder
    "COLLECTIVE_TAG", "CommMatrix", "PeRecorder", "SpanRecorder",
    "maybe_span", "merge_pe_obs", "observe_comm", "wire_size",
    # registry
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "merge_registry_docs", "prometheus_text",
    # trace schema
    "SCHEMA_V1", "SCHEMA_V2", "SCHEMA_V3", "TRACE_SCHEMA",
    "TraceSchemaError", "absent_sections",
    "load_trace", "load_trace_file", "upgrade_trace",
    # causal analysis
    "ANALYSIS_SCHEMA", "EventDag", "analyze_trace", "build_event_dag",
    "critical_path", "format_analysis",
    # exporters
    "append_journal", "chrome_trace", "journal_record",
    "prometheus_exposition", "read_journal", "write_chrome_trace",
    # report / compare
    "render_report", "render_html_report", "render_markdown_report",
    "CompareError", "Comparison", "Delta", "assert_provenance",
    "compare_documents", "compare_files", "format_comparison",
    # misc
    "is_primary_process",
]


def is_primary_process() -> bool:
    """True in the driver process, False in a spawned/forked worker PE.

    Console summaries (trace tables, per-level reports) must print once
    per run, not once per rank; worker PEs of the process engine guard
    their output with this.
    """
    return multiprocessing.parent_process() is None

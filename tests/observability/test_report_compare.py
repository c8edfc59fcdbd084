"""Run reports (HTML/markdown) and the regression comparator."""

import json

import pytest

from repro.core import MINIMAL
from repro.core.partitioner import partition_graph
from repro.generators import random_geometric_graph
from repro.instrument import Tracer
from repro.observability import (
    CompareError,
    assert_provenance,
    compare_documents,
    compare_files,
    format_comparison,
    render_report,
)
from repro.observability.compare import load_document


@pytest.fixture(scope="module")
def observed_doc():
    g = random_geometric_graph(300, seed=3)
    tracer = Tracer()
    partition_graph(g, 4, config=MINIMAL.derive(observe=True), seed=1,
                    execution="cluster", engine="sim", tracer=tracer)
    return tracer.to_dict()


class TestReport:
    def test_html_report_sections(self, observed_doc):
        html = render_report(observed_doc, fmt="html")
        assert html.lower().lstrip().startswith("<!doctype html>")
        for token in ("Phase timeline", "PE 0", "PE 3",
                      "Communication heatmap", "svg"):
            assert token in html, token

    def test_markdown_report_sections(self, observed_doc):
        md = render_report(observed_doc, fmt="markdown")
        assert md.startswith("# repro run report")
        assert "| " in md  # tables rendered
        assert "PE 0" in md

    def test_unknown_format_raises(self, observed_doc):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(observed_doc, fmt="pdf")

    def test_report_on_unobserved_v1_doc(self):
        doc = {"schema": "repro.trace/1", "meta": {"k": 2},
               "phases": [], "levels": [{"level": 0, "cut": 5}],
               "counters": {}}
        html = render_report(doc, fmt="html")
        assert "cut" in html  # level table still renders

    def test_analysis_section_in_reports(self, observed_doc):
        html = render_report(observed_doc, fmt="html")
        assert "Analysis" in html and "critical path" in html.lower()
        md = render_report(observed_doc, fmt="markdown")
        assert "## Analysis" in md


class TestStrippedTraceDegradation:
    """Regression: a trace with observability sections removed renders
    with 'section absent' notes — never a traceback (the bug this
    guards against was a KeyError deep in the heatmap renderer)."""

    @pytest.mark.parametrize("drop", [
        ("comm_matrix",), ("spans",), ("events",),
        ("spans", "comm_matrix", "metrics", "events"),
    ])
    @pytest.mark.parametrize("fmt", ["html", "markdown"])
    def test_stripped_sections_render_with_note(self, observed_doc,
                                                drop, fmt):
        stripped = {k: v for k, v in observed_doc.items()
                    if k not in drop}
        out = render_report(stripped, fmt=fmt)
        for name in drop:
            assert f"section absent in trace: " in out
            assert name in out
        # the driver-side report still renders
        assert ("repro run report" in out) or ("<h1>" in out)

    def test_stripped_trace_analyze_has_notes(self, observed_doc):
        from repro.observability import analyze_trace

        stripped = {k: v for k, v in observed_doc.items()
                    if k not in ("events", "comm_matrix")}
        an = analyze_trace(stripped)
        assert an["critical_path_s"] is None
        joined = " ".join(an["notes"])
        assert "events" in joined and "comm_matrix" in joined


def _journal_line(cut, **meta):
    return {"schema": "repro.journal/1", "ts": 0.0, "cut": cut,
            "balance": 1.01, "time_s": 1.0, "levels": 3,
            "metrics": {"counters": {"time_refine_s": 0.5}}, "meta": meta}


class TestCompare:
    def test_trace_regression_flagged(self, observed_doc):
        import copy

        worse = copy.deepcopy(observed_doc)
        worse["counters"] = dict(worse["counters"])
        for name in worse["metrics"]["counters"]:
            worse["metrics"]["counters"][name] *= 2.0
        cmp = compare_documents("trace", observed_doc, worse, threshold=0.25)
        assert not cmp.ok
        names = {d.metric for d in cmp.regressions}
        assert any(n.startswith("metrics.") for n in names)

    def test_identical_docs_pass(self, observed_doc):
        cmp = compare_documents("trace", observed_doc, observed_doc)
        assert cmp.ok and not cmp.regressions

    def test_analysis_docs_compare(self, observed_doc, tmp_path):
        from repro.observability import analyze_trace

        an = analyze_trace(observed_doc)
        base, new = tmp_path / "a.json", tmp_path / "b.json"
        base.write_text(json.dumps(an))
        worse = dict(an, critical_path_s=an["critical_path_s"] * 2,
                     wait_fraction=min(1.0, an["wait_fraction"] * 2))
        new.write_text(json.dumps(worse))
        kind, doc = load_document(str(base))
        assert kind == "analysis"
        cmp = compare_files(str(base), str(new), threshold=0.2)
        assert not cmp.ok  # longer critical path / more waiting regress
        names = {r.metric for r in cmp.regressions}
        assert "critical_path_s" in names and "wait_fraction" in names

    def test_higher_is_better_direction(self):
        base = {"schema": "repro.bench_kernels/1",
                "records": [{"graph": "g", "kernel": "k",
                             "backend": "numpy", "median_s": 1.0,
                             "speedup": 10.0}]}
        worse = json.loads(json.dumps(base))
        worse["records"][0]["speedup"] = 2.0  # big slowdown
        cmp = compare_documents("bench", base, worse, threshold=0.25)
        assert any(d.metric.endswith("speedup") and d.regression
                   for d in cmp.deltas)
        # and improving it is never a regression
        better = json.loads(json.dumps(base))
        better["records"][0]["speedup"] = 50.0
        assert compare_documents("bench", base, better).ok

    def test_mapping_cost_is_lower_better(self):
        base = {"schema": "repro.bench_objectives/1",
                "records": [{"graph": "g", "objective": "mapping",
                             "cut": 100.0, "mapping_cost": 200.0,
                             "max_imbalance": 1.02}]}
        worse = json.loads(json.dumps(base))
        worse["records"][0]["mapping_cost"] = 400.0
        cmp = compare_documents("bench", base, worse, threshold=0.25)
        assert any(d.metric.endswith("mapping_cost") and d.regression
                   for d in cmp.deltas)
        # and a lower mapping cost is an improvement, not a regression
        better = json.loads(json.dumps(base))
        better["records"][0]["mapping_cost"] = 50.0
        assert compare_documents("bench", base, better).ok

    def test_journal_files_compare_last_record(self, tmp_path):
        base = tmp_path / "base.jsonl"
        new = tmp_path / "new.jsonl"
        base.write_text(json.dumps(_journal_line(100.0)) + "\n")
        new.write_text(json.dumps(_journal_line(500.0)) + "\n"
                       + json.dumps(_journal_line(100.0)) + "\n")
        cmp = compare_files(str(base), str(new))
        assert cmp.ok  # last line wins: cut 100 vs 100

    def test_journal_run_numbers_read_once(self):
        line = _journal_line(100.0)
        line["stats"] = {"time_refine_s": 0.5}  # a line from older runs
        cmp = compare_documents("journal", [line], [_journal_line(100.0)])
        names = {d.metric for d in cmp.deltas}
        assert "metrics.time_refine_s" in names
        assert not [n for n in names | set(cmp.only_base) if "stats." in n]

    def test_kind_mismatch_raises(self, tmp_path, observed_doc):
        t = tmp_path / "t.json"
        t.write_text(json.dumps(observed_doc,
                                default=lambda o: float(o)))
        j = tmp_path / "j.jsonl"
        j.write_text(json.dumps(_journal_line(1.0)) + "\n")
        with pytest.raises(CompareError, match="cannot compare"):
            compare_files(str(t), str(j))

    def test_chrome_trace_rejected_with_hint(self, tmp_path):
        path = tmp_path / "chrome.json"
        path.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(CompareError, match="Chrome"):
            load_document(str(path))

    def test_format_comparison_mentions_regressions(self, observed_doc):
        import copy

        worse = copy.deepcopy(observed_doc)
        for name in worse["metrics"]["counters"]:
            worse["metrics"]["counters"][name] *= 2.0
        cmp = compare_documents("trace", observed_doc, worse)
        text = format_comparison(cmp, "a.json", "b.json")
        assert "REGRESSION" in text
        assert "a.json -> b.json" in text


class TestProvenance:
    def test_bench_with_meta_passes(self, tmp_path):
        doc = {"schema": "repro.bench_kernels/1",
               "meta": {"git_sha": "abc123", "timestamp": "2026-01-01"},
               "records": []}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        meta = assert_provenance(str(path))
        assert meta["git_sha"] == "abc123"

    def test_missing_provenance_raises(self, tmp_path):
        doc = {"schema": "repro.bench_kernels/1", "meta": {}, "records": []}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CompareError, match="provenance"):
            assert_provenance(str(path))

    def test_journal_provenance_from_last_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(
            _journal_line(1.0, git_sha="abc", timestamp="t")) + "\n")
        assert assert_provenance(str(path))["git_sha"] == "abc"

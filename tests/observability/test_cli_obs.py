"""CLI surface of the telemetry layer: export flags, report, compare."""

import json

import pytest

from repro.cli import main
from repro.graph import write_metis
from repro.observability import load_trace_file, read_journal
from repro.provenance import git_sha


@pytest.fixture
def graph_file(tmp_path, delaunay300):
    path = tmp_path / "g.graph"
    write_metis(delaunay300, path)
    return str(path)


class TestExportFlags:
    def test_trace_events_writes_chrome_trace(self, graph_file, tmp_path,
                                              capsys):
        te = str(tmp_path / "trace_events.json")
        rc = main(["partition", graph_file, "-k", "4",
                   "--preset", "minimal", "--engine", "sim",
                   "-o", str(tmp_path / "p"), "--trace-events", te])
        assert rc == 0
        doc = json.loads(open(te).read())
        tracks = {e["args"]["name"] for e in doc["traceEvents"]
                  if e["ph"] == "M"}
        assert {"PE 0", "PE 1", "PE 2", "PE 3"} <= tracks
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert "perfetto" in capsys.readouterr().out.lower()

    def test_metrics_flag_writes_prometheus(self, graph_file, tmp_path):
        m = str(tmp_path / "metrics.prom")
        rc = main(["partition", graph_file, "-k", "2",
                   "--preset", "minimal", "-o", str(tmp_path / "p"),
                   "--metrics", m])
        assert rc == 0
        text = open(m).read()
        assert "# TYPE repro_final_cut gauge" in text

    def test_journal_flag_appends_with_provenance(self, graph_file,
                                                  tmp_path):
        j = str(tmp_path / "runs.jsonl")
        for _ in range(2):
            rc = main(["partition", graph_file, "-k", "2",
                       "--preset", "minimal", "-o", str(tmp_path / "p"),
                       "--journal", j])
            assert rc == 0
        records = read_journal(j)
        assert len(records) == 2
        meta = records[-1]["meta"]
        # git_sha is None outside a git checkout, so compare, don't
        # require a value
        assert "git_sha" in meta and meta["git_sha"] == git_sha()
        assert meta["timestamp"]
        assert meta["k"] == 2 and meta["graph"] == graph_file

    def test_flags_accepted_before_subcommand(self, graph_file, tmp_path):
        te = str(tmp_path / "te.json")
        rc = main(["--trace-events", te, "partition", graph_file,
                   "-k", "2", "--preset", "minimal",
                   "-o", str(tmp_path / "p")])
        assert rc == 0
        assert json.loads(open(te).read())["traceEvents"]

    def test_obs_flags_require_kappa_tool(self, graph_file, tmp_path,
                                          capsys):
        rc = main(["partition", graph_file, "-k", "2",
                   "--tool", "metis_like", "--metrics",
                   str(tmp_path / "m")])
        assert rc == 1
        assert "require --tool kappa" in capsys.readouterr().err


class TestReportCommand:
    @pytest.fixture
    def trace_file(self, graph_file, tmp_path):
        t = str(tmp_path / "trace.json")
        rc = main(["partition", graph_file, "-k", "4",
                   "--preset", "minimal", "--engine", "sim",
                   "-o", str(tmp_path / "p"), "--trace", t,
                   "--trace-events", str(tmp_path / "te.json")])
        assert rc == 0
        return t

    def test_html_report(self, trace_file, tmp_path, capsys):
        out = str(tmp_path / "report.html")
        rc = main(["report", trace_file, "-o", out])
        assert rc == 0
        html = open(out).read()
        assert "Phase timeline" in html and "PE 0" in html

    def test_markdown_inferred_from_suffix(self, trace_file, tmp_path):
        out = str(tmp_path / "report.md")
        rc = main(["report", trace_file, "-o", out])
        assert rc == 0
        assert open(out).read().startswith("# repro run report")

    def test_default_output_path(self, trace_file, capsys):
        rc = main(["report", trace_file])
        assert rc == 0
        assert open(trace_file + ".report.html").read()

    def test_missing_trace_errors(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "cannot load trace" in capsys.readouterr().err

    def test_process_engine_run_reports_per_pe_spans(self, graph_file,
                                                     tmp_path):
        # regression: a real-concurrency engine must flow through the
        # report path like every other engine — named in the title,
        # per-PE phase rows present
        t = str(tmp_path / "trace.json")
        out = str(tmp_path / "report.html")
        rc = main(["partition", graph_file, "-k", "4",
                   "--preset", "minimal", "--engine", "process",
                   "-o", str(tmp_path / "p"), "--trace", t,
                   "--trace-events", str(tmp_path / "te.json")])
        assert rc == 0
        assert json.loads(open(t).read())["meta"]["engine"] == "process"
        rc = main(["report", t, "-o", out])
        assert rc == 0
        html = open(out).read()
        assert "engine=process" in html
        for pe in range(4):
            assert f"PE {pe}" in html


class TestAnalyzeCommand:
    @pytest.fixture
    def trace_file(self, graph_file, tmp_path):
        t = str(tmp_path / "trace.json")
        rc = main(["partition", graph_file, "-k", "4",
                   "--preset", "minimal", "--engine", "sim",
                   "-o", str(tmp_path / "p"), "--trace", t,
                   "--trace-events", str(tmp_path / "te.json")])
        assert rc == 0
        return t

    def test_analyze_prints_critical_path(self, trace_file, capsys):
        rc = main(["analyze", trace_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "per-PE buckets" in out

    def test_analyze_json_output(self, trace_file, tmp_path, capsys):
        out = str(tmp_path / "analysis.json")
        rc = main(["analyze", trace_file, "--json", out])
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["schema"] == "repro.analysis/1"
        assert doc["critical_path_s"] is not None
        assert doc["per_pe"] and doc["top_waits"]

    def test_analyze_unobserved_trace_degrades(self, graph_file,
                                               tmp_path, capsys):
        t = str(tmp_path / "plain.json")
        rc = main(["partition", graph_file, "-k", "2",
                   "--preset", "minimal", "-o", str(tmp_path / "p"),
                   "--trace", t])
        assert rc == 0
        rc = main(["analyze", t])
        assert rc == 0  # note, not a traceback
        assert "note" in capsys.readouterr().out

    def test_analyze_missing_file_errors(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "cannot analyze trace" in capsys.readouterr().err


class TestCompareCommand:
    @pytest.fixture
    def journals(self, tmp_path):
        def line(cut):
            return json.dumps({"schema": "repro.journal/1", "ts": 0.0,
                               "cut": cut, "balance": 1.0, "time_s": 1.0,
                               "levels": 1,
                               "meta": {"git_sha": "abc",
                                        "timestamp": "t"}})

        base = tmp_path / "base.jsonl"
        base.write_text(line(100.0) + "\n")
        same = tmp_path / "same.jsonl"
        same.write_text(line(101.0) + "\n")
        worse = tmp_path / "worse.jsonl"
        worse.write_text(line(200.0) + "\n")
        return str(base), str(same), str(worse)

    def test_ok_exit_zero(self, journals, capsys):
        base, same, _ = journals
        assert main(["compare", base, same]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_regression_exit_one(self, journals, capsys):
        base, _, worse = journals
        assert main(["compare", base, worse]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_tunable(self, journals):
        base, _, worse = journals
        assert main(["compare", base, worse, "--threshold", "2.0"]) == 0

    def test_require_provenance(self, journals, tmp_path, capsys):
        base, same, _ = journals
        bare = tmp_path / "bare.jsonl"
        bare.write_text(json.dumps({"schema": "repro.journal/1", "ts": 0.0,
                                    "cut": 100.0, "balance": 1.0,
                                    "time_s": 1.0, "levels": 1}) + "\n")
        assert main(["compare", base, same,
                     "--require-provenance", "new"]) == 0
        assert main(["compare", base, str(bare),
                     "--require-provenance", "new"]) == 2
        assert "provenance" in capsys.readouterr().err

    def test_kind_mismatch_exit_two(self, journals, tmp_path, capsys):
        base, _, _ = journals
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(
            {"schema": "repro.bench_kernels/1", "meta": {},
             "records": [{"kernel": "band_bfs", "backend": "numpy",
                          "median_s": 1.0}]}))
        assert main(["compare", base, str(bench)]) == 2
        assert "cannot compare" in capsys.readouterr().err


class TestTraceLoadsAsCurrentSchema:
    def test_cli_trace_loads_as_v3(self, graph_file, tmp_path):
        t = str(tmp_path / "trace.json")
        rc = main(["partition", graph_file, "-k", "2",
                   "--preset", "minimal", "-o", str(tmp_path / "p"),
                   "--trace", t])
        assert rc == 0
        doc = load_trace_file(t)
        assert doc["schema"] == "repro.trace/3"
        assert "events" in doc  # defaulted even for unobserved runs

"""Trace schema round-trips, version upgrade, and the exporters."""

import json

import pytest

from repro.generators import random_geometric_graph
from repro.core import MINIMAL
from repro.core.partitioner import partition_graph
from repro.instrument import Tracer
from repro.observability import (
    SCHEMA_V1,
    SCHEMA_V2,
    SCHEMA_V3,
    TRACE_SCHEMA,
    absent_sections,
    TraceSchemaError,
    append_journal,
    chrome_trace,
    journal_record,
    load_trace,
    load_trace_file,
    prometheus_exposition,
    read_journal,
    upgrade_trace,
    write_chrome_trace,
)


def _v1_doc():
    return {"schema": SCHEMA_V1, "meta": {"k": 4},
            "phases": [{"name": "coarsening", "elapsed_s": 0.5}],
            "levels": [{"level": 0, "cut": 10}],
            "counters": {"rounds": 3}}


class TestSchema:
    def test_current_schema_is_v3(self):
        assert TRACE_SCHEMA == SCHEMA_V3 == "repro.trace/3"

    def test_v1_upgrade_adds_empty_sections(self):
        doc = _v1_doc()
        up = upgrade_trace(doc)
        assert up["schema"] == SCHEMA_V3
        assert up["spans"] == [] and up["comm_matrix"] == []
        assert up["metrics"] == {}
        assert up["events"] == {"records": [], "clocks": []}
        # original sections survive untouched
        assert up["levels"] == doc["levels"]
        assert doc["schema"] == SCHEMA_V1  # /1 input not mutated

    def test_v2_upgrade_keeps_sections_adds_events(self):
        doc = {"schema": SCHEMA_V2, "phases": [],
               "spans": [{"pe": 0, "name": "x"}], "comm_matrix": [],
               "metrics": {"counters": {"n": 1}}}
        up = upgrade_trace(doc)
        assert up["schema"] == SCHEMA_V3
        assert up["spans"] == doc["spans"]
        assert up["metrics"] == doc["metrics"]
        assert up["events"] == {"records": [], "clocks": []}
        assert doc["schema"] == SCHEMA_V2  # /2 input not mutated

    def test_v3_passthrough_in_place(self):
        doc = {"schema": SCHEMA_V3, "phases": []}
        assert upgrade_trace(doc) is doc
        assert doc["spans"] == []
        assert doc["events"] == {"records": [], "clocks": []}

    def test_absent_sections_on_raw_docs(self):
        assert absent_sections(_v1_doc()) == \
            ["spans", "comm_matrix", "metrics", "events"]
        assert absent_sections({"schema": SCHEMA_V2, "spans": [],
                                "comm_matrix": [], "metrics": {}}) == \
            ["events"]
        assert absent_sections("not a dict") == \
            ["spans", "comm_matrix", "metrics", "events"]

    def test_unknown_schema_raises(self):
        with pytest.raises(TraceSchemaError, match="unknown trace schema"):
            load_trace({"schema": "repro.trace/99"})
        with pytest.raises(TraceSchemaError):
            load_trace([1, 2, 3])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_v1_doc()))
        doc = load_trace_file(str(path))
        assert doc["schema"] == SCHEMA_V3

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            load_trace_file(str(path))

    def test_tracer_emits_v3_round_trip(self, tmp_path):
        tr = Tracer()
        with tr.phase("coarsening"):
            tr.count("rounds")
        path = tmp_path / "trace.json"
        tr.write(str(path))
        doc = load_trace_file(str(path))
        assert doc["schema"] == SCHEMA_V3
        assert doc["phases"][0]["t0_s"] > 0
        assert doc["counters"] == {"rounds": 1}


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def observed_trace(self):
        g = random_geometric_graph(300, seed=3)
        tracer = Tracer()
        partition_graph(g, 4, config=MINIMAL.derive(observe=True), seed=1,
                        execution="cluster", engine="sequential",
                        tracer=tracer)
        return tracer.to_dict()

    def test_one_track_per_pe(self, observed_trace):
        ct = chrome_trace(observed_trace)
        names = {e["args"]["name"] for e in ct["traceEvents"]
                 if e["ph"] == "M"}
        assert {"PE 0", "PE 1", "PE 2", "PE 3", "driver"} <= names
        tids = {e["tid"] for e in ct["traceEvents"] if e["ph"] == "X"}
        assert {1, 2, 3, 4} <= tids  # pe + 1; 0 is the driver track

    def test_events_relative_microseconds(self, observed_trace):
        ct = chrome_trace(observed_trace)
        xs = [e for e in ct["traceEvents"] if e["ph"] == "X"]
        assert xs and min(e["ts"] for e in xs) == pytest.approx(0.0, abs=1.0)
        assert all(e["dur"] >= 0 for e in xs)

    def test_upgraded_v1_doc_yields_driver_track_only(self):
        ct = chrome_trace(_v1_doc())
        assert all(e["tid"] == 0 for e in ct["traceEvents"]
                   if e["ph"] == "X")

    def test_write_is_valid_json(self, observed_trace, tmp_path):
        path = tmp_path / "chrome.json"
        write_chrome_trace(observed_trace, str(path))
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


class TestPrometheusExposition:
    def test_renders_trace_metrics(self):
        doc = {"schema": SCHEMA_V2,
               "metrics": {"counters": {"messages_sent": 4},
                           "gauges": {}, "histograms": {}}}
        text = prometheus_exposition(doc)
        assert "repro_messages_sent 4" in text

    def test_empty_on_v1(self):
        assert prometheus_exposition(_v1_doc()) == ""


class TestJournal:
    def test_record_and_round_trip(self, tmp_path):
        g = random_geometric_graph(300, seed=3)
        res = partition_graph(g, 2, config=MINIMAL, seed=1)
        rec = journal_record(res, meta={"git_sha": "abc", "timestamp": "t"})
        assert rec["schema"] == "repro.journal/1"
        assert rec["cut"] == res.cut
        assert rec["meta"]["git_sha"] == "abc"
        assert rec["metrics"] == res.metrics  # the run's one book
        assert "stats" not in rec            # ... written once
        path = tmp_path / "runs.jsonl"
        append_journal(str(path), rec)
        append_journal(str(path), rec)
        back = read_journal(str(path))
        assert len(back) == 2
        assert back[0]["cut"] == res.cut

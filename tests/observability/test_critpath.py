"""Causal event DAG, critical-path extraction and wait attribution."""

import json

import pytest

from repro.core import MINIMAL
from repro.core.partitioner import partition_graph
from repro.generators import random_geometric_graph, triangulated_grid
from repro.instrument import Tracer
from repro.observability import (
    ANALYSIS_SCHEMA,
    SCHEMA_V2,
    SCHEMA_V3,
    analyze_trace,
    build_event_dag,
    critical_path,
    format_analysis,
)

OBS = MINIMAL.derive(observe=True)


def _hand_trace():
    """A tiny 2-PE trace built by hand: PE0 sends twice on one channel,
    PE1 receives both, plus one collective round."""
    records = [
        {"pe": 0, "i": 0, "type": "send", "src": 0, "dst": 1, "tag": 7,
         "seq": 0, "phase": "a", "t_s": 10.0},
        {"pe": 0, "i": 1, "type": "send", "src": 0, "dst": 1, "tag": 7,
         "seq": 1, "phase": "a", "t_s": 10.1},
        {"pe": 0, "i": 2, "type": "coll", "rank": 0, "round": 0,
         "phase": "b", "t_s": 10.4, "wait_s": 0.0},
        {"pe": 1, "i": 0, "type": "recv", "src": 0, "dst": 1, "tag": 7,
         "seq": 0, "phase": "a", "t_s": 10.05, "wait_s": 0.05},
        {"pe": 1, "i": 1, "type": "recv", "src": 0, "dst": 1, "tag": 7,
         "seq": 1, "phase": "a", "t_s": 10.2, "wait_s": 0.1},
        {"pe": 1, "i": 2, "type": "coll", "rank": 1, "round": 0,
         "phase": "b", "t_s": 10.4, "wait_s": 0.2},
    ]
    clocks = [{"pe": 0, "t0_s": 10.0, "t1_s": 10.5},
              {"pe": 1, "t0_s": 10.0, "t1_s": 10.45}]
    return {"schema": SCHEMA_V3, "meta": {"k": 2},
            "spans": [], "comm_matrix": [], "metrics": {},
            "events": {"records": records, "clocks": clocks}}


class TestEventDag:
    def test_edge_kinds_on_hand_trace(self):
        dag = build_event_dag(_hand_trace())
        counts = dag.edge_counts()
        # program: (0,0)->(0,1)->(0,2) and (1,0)->(1,1)->(1,2)
        assert counts["program"] == 4
        # message: two matched (src,dst,tag,seq) pairs
        assert counts["message"] == 2
        assert ((0, 0), (1, 0), "message") in dag.edges
        assert ((0, 1), (1, 1), "message") in dag.edges
        # collective star, round 0: each rank's predecessor -> rank0's
        # coll, rank0's coll -> each rank's coll
        assert ((1, 1), (0, 2), "collective") in dag.edges
        assert ((0, 2), (1, 2), "collective") in dag.edges

    def test_seq_matching_not_fifo_position(self):
        """Matching is per-channel seq, so interleaved tags pair up."""
        doc = _hand_trace()
        recs = doc["events"]["records"]
        # retag the second send/recv pair onto its own channel
        recs[1] = dict(recs[1], tag=9, seq=0)
        recs[4] = dict(recs[4], tag=9, seq=0)
        dag = build_event_dag(doc)
        assert ((0, 1), (1, 1), "message") in dag.edges

    def test_unmatched_recv_noted_not_fatal(self):
        doc = _hand_trace()
        doc["events"]["records"] = [
            r for r in doc["events"]["records"]
            if not (r["pe"] == 0 and r["i"] == 1)]
        dag = build_event_dag(doc)
        assert any("no matching send" in note for note in dag.notes)

    def test_topo_order_respects_edges(self):
        dag = build_event_dag(_hand_trace())
        order = {key: pos for pos, key in enumerate(dag.topo_order())}
        for src, dst, _ in dag.edges:
            assert order[src] < order[dst]


class TestCriticalPath:
    def test_logical_is_deterministic(self):
        dag = build_event_dag(_hand_trace())
        p1, l1 = critical_path(dag, weights="logical")
        p2, l2 = critical_path(dag, weights="logical")
        assert p1 == p2 and l1 == l2
        assert len(p1) == l1

    def test_wall_bounded_by_makespan(self):
        dag = build_event_dag(_hand_trace())
        _, length = critical_path(dag, weights="wall")
        assert length <= 10.5 - 10.0 + 1e-9

    def test_wall_path_ends_at_last_event(self):
        dag = build_event_dag(_hand_trace())
        path, _ = critical_path(dag, weights="wall")
        assert path[-1] in ((0, 2), (1, 2))  # the t_s=10.4 finishers


class TestAnalyzeTrace:
    @pytest.fixture(scope="class")
    def observed_doc(self):
        g = random_geometric_graph(200, seed=2)
        tracer = Tracer()
        partition_graph(g, 4, config=OBS, seed=1, execution="cluster",
                        engine="sim", tracer=tracer)
        return tracer.to_dict()

    def test_schema_and_headline(self, observed_doc):
        an = analyze_trace(observed_doc)
        assert an["schema"] == ANALYSIS_SCHEMA
        assert an["critical_path_s"] is not None
        assert 0.0 <= an["wait_fraction"] <= 1.0
        assert an["edges"]["message"] > 0
        assert an["straggler"]["pe"] in (0, 1, 2, 3)

    def test_buckets_sum_to_wall_per_pe(self, observed_doc):
        an = analyze_trace(observed_doc)
        assert len(an["per_pe"]) == 4
        for row in an["per_pe"]:
            total = (row["compute_s"] + row["recv_wait_s"]
                     + row["coll_wait_s"])
            assert total == pytest.approx(row["wall_s"], rel=1e-6,
                                          abs=1e-9)

    def test_critical_path_bounded_by_wall(self, observed_doc):
        an = analyze_trace(observed_doc)
        assert an["critical_path_s"] <= an["wall_s"] + 1e-6

    def test_top_waits_sorted_and_attributed(self, observed_doc):
        an = analyze_trace(observed_doc, top_waits=8)
        waits = an["top_waits"]
        assert waits == sorted(waits, key=lambda w: -w["wait_s"])
        for w in waits:
            if w["type"] == "recv":
                assert w["src"] is not None and w["src_phase"] is not None
            elif w["type"] == "coll":
                assert w["round"] is not None

    def test_per_phase_rows_have_wait_fractions(self, observed_doc):
        an = analyze_trace(observed_doc)
        names = {row["phase"] for row in an["per_phase"]}
        assert names  # at least one phase attributed
        for row in an["per_phase"]:
            if row["wait_fraction"] is not None:
                assert row["wait_fraction"] >= 0.0

    def test_json_round_trip(self, observed_doc, tmp_path):
        an = analyze_trace(observed_doc)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(an))
        assert json.loads(path.read_text())["schema"] == ANALYSIS_SCHEMA

    def test_format_analysis_renders(self, observed_doc):
        text = format_analysis(analyze_trace(observed_doc))
        assert "critical path" in text
        assert "per-PE buckets" in text


class TestGracefulDegradation:
    def test_v2_doc_without_events(self):
        doc = {"schema": SCHEMA_V2, "meta": {}, "phases": [],
               "spans": [], "comm_matrix": [], "metrics": {}}
        an = analyze_trace(doc)
        assert an["schema"] == ANALYSIS_SCHEMA
        assert an["critical_path_s"] is None
        assert any("events" in note for note in an["notes"])

    def test_v1_doc(self):
        an = analyze_trace({"schema": "repro.trace/1", "phases": []})
        assert an["critical_path_s"] is None
        assert an["notes"]

    def test_comm_matrix_fallback(self):
        doc = {"schema": SCHEMA_V2, "meta": {}, "phases": [], "spans": [],
               "metrics": {},
               "comm_matrix": [{"src": 1, "dst": 0, "tag": "coll",
                                "phase": "x", "messages": 3, "bytes": 10,
                                "wait_s": 0.25}]}
        an = analyze_trace(doc)
        assert an["per_pe"]  # wait summary derived from the matrix
        assert any((r.get("wait_s") or 0.0) > 0 for r in an["per_pe"])

    def test_format_analysis_on_degraded(self):
        text = format_analysis(analyze_trace({"schema": "repro.trace/1"}))
        assert "note" in text


class TestCrossEngineDag:
    """Acceptance: every engine produces the identical causal DAG
    (same edge set, same logical critical path) for the same program."""

    ENGINES = ("sequential", "sim", "process")

    @staticmethod
    def _dag_fingerprint(g, k, engine):
        tracer = Tracer()
        res = partition_graph(g, k, config=OBS, seed=1,
                              execution="cluster", engine=engine,
                              tracer=tracer)
        dag = build_event_dag(tracer.to_dict())
        path, length = critical_path(dag, weights="logical")
        return res.partition.part, sorted(dag.edges), path, length

    @pytest.mark.parametrize("family,make", [
        ("rgg", lambda: random_geometric_graph(200, seed=2)),
        ("grid", lambda: triangulated_grid(12, 12)),
    ])
    @pytest.mark.parametrize("k", [2, 4])
    def test_identical_dag_all_engines(self, family, make, k):
        g = make()
        base_part, base_edges, base_path, base_len = \
            self._dag_fingerprint(g, k, "sequential")
        assert base_edges, "sequential run produced no causal edges"
        for engine in self.ENGINES[1:]:
            part, edges, path, length = self._dag_fingerprint(g, k, engine)
            assert (part == base_part).all(), engine
            assert edges == base_edges, \
                f"{engine} causal edge set diverges from sequential"
            assert path == base_path and length == base_len, \
                f"{engine} logical critical path diverges"


class TestDelayFaultOnCriticalPath:
    """Acceptance: a seeded send-delay on one PE is visible in the
    analysis — longer critical path, and the delayed PE's time bucket
    absorbs the injected latency."""

    def _analysis(self, faults):
        g = random_geometric_graph(200, seed=2)
        tracer = Tracer()
        cfg = OBS.derive(faults=faults)
        partition_graph(g, 4, config=cfg, seed=1, execution="cluster",
                        engine="process", tracer=tracer)
        return analyze_trace(tracer.to_dict())

    def test_injected_delay_shows_up(self):
        base = self._analysis(None)
        fault = self._analysis("pe1:delay=20ms")
        # the critical path must absorb at least one injected delay
        assert fault["critical_path_s"] >= \
            base["critical_path_s"] + 0.020 - 0.005
        # pe1 sleeps before each send, so its non-wait bucket dominates
        computes = {r["pe"]: r["compute_s"] for r in fault["per_pe"]}
        assert max(computes, key=computes.get) == 1
        assert computes[1] > \
            {r["pe"]: r["compute_s"] for r in base["per_pe"]}[1] + 0.020
        # and the critical path runs through pe1 events
        assert any(n["pe"] == 1 for n in fault["critical_path"])

"""One metrics book per run: every run number is written once, into
``KappaResult.metrics``; ``stats`` and the trace's run metrics are views
of it, and the trace's ``counters`` hold only what the Tracer counted."""

import pytest

from repro.core import MINIMAL
from repro.core.partitioner import partition_graph
from repro.generators import random_geometric_graph
from repro.instrument import Tracer

K = 4
SEED = 7

#: the stats keys perfbench's cluster workload reads
PERFBENCH_KEYS = {"phase_coarsening_max_s",
                  "phase_initial_partitioning_max_s",
                  "phase_refinement_max_s", "messages_sent", "bytes_sent"}


@pytest.fixture(scope="module")
def graph():
    return random_geometric_graph(300, seed=3)


def _run(graph, config, execution="cluster", engine=None):
    return partition_graph(graph, K, config=config, seed=SEED,
                           execution=execution, engine=engine,
                           tracer=Tracer())


def _assert_one_book(res):
    doc = res.metrics
    assert dict(res.stats) == {**doc["counters"], **doc["gauges"]}
    with pytest.raises(TypeError):
        res.stats["final_cut"] = 0.0  # a view, not a second book
    assert res.stats["final_cut"] == res.cut
    assert res.stats["final_balance"] == res.balance
    trace = res.trace
    assert trace["metrics"] == doc
    run_keys = set().union(*(doc[kind] for kind in
                             ("counters", "gauges", "histograms")))
    assert not set(trace["counters"]) & run_keys


def test_sequential_path(graph):
    res = _run(graph, MINIMAL, execution="sequential")
    _assert_one_book(res)
    assert set(res.stats) == {"time_coarsen_s", "time_initial_s",
                              "time_refine_s", "final_cut", "final_balance"}


@pytest.mark.parametrize("engine", ["sequential", "sim", "process"])
def test_cluster_engines(graph, engine):
    res = _run(graph, MINIMAL, engine=engine)
    _assert_one_book(res)
    expected = PERFBENCH_KEYS | {"final_cut", "final_balance"}
    if engine != "sequential":
        expected.add("makespan_s")
    assert set(res.stats) == expected
    assert res.stats["messages_sent"] > 0 and res.stats["bytes_sent"] > 0


def test_mapping_cost_is_a_gauge(graph):
    res = _run(graph, MINIMAL.derive(objective="mapping"), engine="sim")
    _assert_one_book(res)
    assert "mapping_cost" in res.metrics["gauges"]


def test_observed_run_keeps_histograms_out_of_stats(graph):
    res = _run(graph, MINIMAL.derive(observe=True), engine="sim")
    _assert_one_book(res)
    assert res.metrics["histograms"]["recv_wait_s"]["count"] > 0
    assert res.obs["metrics"] is res.metrics
    assert not any(name.startswith("recv_wait_s") for name in res.stats)


def test_process_crash_and_restart(graph, tmp_path):
    cfg = MINIMAL.derive(
        faults="pe1:crash@refine:level0",
        checkpoint_dir=str(tmp_path / "ckpts"),
        on_pe_failure="restart",
        max_restarts=2,
    )
    res = _run(graph, cfg, engine="process")
    _assert_one_book(res)
    counters = res.metrics["counters"]
    # supervisor events are counters of the same book as the PEs' ones
    assert counters["fault_injected_crashes"] == 1.0
    assert counters["fault_pe_restarts"] >= 1.0
    assert counters["checkpoint_restores"] >= 1.0
    assert counters["recovery_time_s"] > 0.0
    assert {"messages_sent", "bytes_sent", "makespan_s"} <= set(res.stats)

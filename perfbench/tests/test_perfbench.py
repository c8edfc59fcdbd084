"""The benchmark's own tests: exact counts repeat, seeds change inputs,
the correctness checks catch bad answers, and the command refuses to run
without the program.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import common
import library
import serve

from repro import from_edge_list

ROOT = Path(__file__).resolve().parents[2]

_LIBRARY_COUNTS = {
    "seq-road16k": ["coarsening.levels", "coarsening.coarsest_n",
                    *[f"kernels.{k}.calls" for k in common.KERNELS]],
    "cluster-p2": ["coarsening.levels", "coarsening.coarsest_n",
                   "engine.messages", "engine.bytes"],
}


def _run_library(monkeypatch, name, trace):
    # two partition seeds and one set-up keep the test short
    monkeypatch.setitem(library.WORKLOADS, name,
                        dataclasses.replace(library.WORKLOADS[name], seeds=2))
    monkeypatch.setattr(library, "SETUP_REPEATS", 1)
    out = common.Outcome()
    library.run(name, seed=5, seconds=0.01, trace=trace, outcome=out)
    assert out.problems == [] and out.attempted > 0
    return out.metrics


@pytest.mark.parametrize("name", sorted(_LIBRARY_COUNTS))
def test_library_counts_repeat_exactly(monkeypatch, name):
    first = _run_library(monkeypatch, name, True)
    second = _run_library(monkeypatch, name, True)
    for metric in _LIBRARY_COUNTS[name]:
        assert first[metric] > 0
        assert first[metric] == second[metric], metric
    assert _run_library(monkeypatch, name, False)["cut_mean"] == \
        _run_library(monkeypatch, name, False)["cut_mean"]


def _run_serve(monkeypatch, trace):
    monkeypatch.setattr(serve, "MIN_ROUNDS", 1)
    monkeypatch.setattr(serve, "TRACED_ROUNDS", 1)
    monkeypatch.setattr(serve, "SETUP_REPEATS", 1)
    out = common.Outcome()
    serve.run(ROOT, seed=5, seconds=0.01, trace=trace, outcome=out)
    assert out.problems == [] and out.attempted > 0
    return out.metrics


def test_serve_counts_repeat_exactly(monkeypatch):
    first, second = _run_serve(monkeypatch, True), _run_serve(monkeypatch,
                                                              True)
    assert first["service.cache_hits_per_cycle"] == 4
    assert first["service.cache_misses_per_cycle"] == 1
    assert first["service.cache_hit_ratio"] == 0.5
    for metric in ("service.jobs_executed", "coarsening.levels",
                   "coarsening.coarsest_n"):
        assert first[metric] > 0
        assert first[metric] == second[metric], metric
    assert _run_serve(monkeypatch, False)["cut_mean"] == \
        _run_serve(monkeypatch, False)["cut_mean"]


def test_workload_seed_changes_generated_inputs():
    assert library.partition_seeds(1, 8) == library.partition_seeds(1, 8)
    assert library.partition_seeds(1, 8) != library.partition_seeds(2, 8)
    for make in (lambda s: serve.miss_input(s, 0, 0),
                 lambda s: serve.hot_input(s, 0),
                 lambda s: serve.session_input(s, 0)):
        assert make(1) == make(1)
        assert make(1) != make(2)


def test_checks_reject_wrong_answers():
    # a 4-cycle with unit weights: blocks {0,1} | {2,3} cut two edges
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    good = np.array([0, 0, 1, 1])
    assert common.check_partition(g, good, 2, 0.03, 2.0) is None
    assert "reported cut" in common.check_partition(g, good, 2, 0.03, 1.0)
    one_block = np.zeros(4, dtype=np.int64)
    assert common.check_partition(g, one_block, 2, 0.03, 0.0) == \
        "infeasible partition"
    assert common.check_partition(g, np.array([0, 0, 1, 2]), 2, 0.03,
                                  3.0) == "infeasible partition"


def test_times_are_scaled_to_the_reference_host():
    ref = common.REF_PROBE_S
    # a host twice as slow as the reference halves every reported time
    assert common.ref_factor(2 * ref, 2 * ref) == 0.5
    assert common.ref_factor(ref, 3 * ref) == 0.5
    scaled = common.scale_times({"coarsening.s": 1.0,
                                 "coarsening.levels": 7.0}, 0.5)
    assert scaled == {"coarsening.s": 0.5, "coarsening.levels": 7.0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq-road16k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_lists_what_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(common.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: common.UNITS[name] for name in common.END_TO_END}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        common.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == \
        ["seq-road16k", "cluster-p2", "serve-mixed"]

"""`repro compare` on load-test shaped bench documents, which take the
generic numeric-field path, + the unknown-schema fallback."""

from __future__ import annotations

import json

import pytest

from repro.observability.compare import (
    CompareError,
    compare_documents,
    compare_files,
    format_comparison,
)


def _service_doc(p50: float, throughput: float, speedup: float,
                 hit_ratio: float = 0.5) -> dict:
    return {
        "schema": "repro.bench_load/1",
        "meta": {"git_sha": "abc", "timestamp": "2026-01-01T00:00:00Z"},
        "records": [
            {"name": "scratch", "requests": 8, "errors": 0,
             "wall_s": 2.0, "throughput_rps": throughput,
             "latency_p50_s": p50, "latency_p95_s": p50 * 2,
             "cache_hits": 0},
        ],
        "cached_speedup": speedup,
        "cache_hit_ratio": hit_ratio,
    }


def test_service_records_extracted_and_compared():
    base = _service_doc(p50=0.1, throughput=10.0, speedup=5.0)
    new = _service_doc(p50=0.1, throughput=10.0, speedup=5.0)
    cmp = compare_documents("bench", base, new)
    names = {d.metric for d in cmp.deltas}
    assert "scratch.latency_p50_s" in names
    assert "scratch.throughput_rps" in names
    assert "cached_speedup" in names
    assert "cache_hit_ratio" in names
    assert cmp.ok


def test_latency_regresses_upward():
    cmp = compare_documents(
        "bench",
        _service_doc(p50=0.1, throughput=10.0, speedup=5.0),
        _service_doc(p50=0.2, throughput=10.0, speedup=5.0))
    bad = [d.metric for d in cmp.regressions]
    assert "scratch.latency_p50_s" in bad
    assert "scratch.latency_p95_s" in bad


def test_throughput_and_speedup_regress_downward():
    # higher-is-better direction: throughput_rps must NOT be caught by
    # the "_s" lower-is-better suffix, and dropping values must flag
    cmp = compare_documents(
        "bench",
        _service_doc(p50=0.1, throughput=10.0, speedup=5.0, hit_ratio=0.9),
        _service_doc(p50=0.1, throughput=4.0, speedup=1.5, hit_ratio=0.2))
    bad = {d.metric for d in cmp.regressions}
    assert "scratch.throughput_rps" in bad
    assert "cached_speedup" in bad
    assert "cache_hit_ratio" in bad
    # ... and an *increase* is not a regression
    cmp2 = compare_documents(
        "bench",
        _service_doc(p50=0.1, throughput=4.0, speedup=1.5),
        _service_doc(p50=0.1, throughput=10.0, speedup=5.0))
    assert cmp2.ok


def test_missing_metric_in_baseline_is_informational():
    base = _service_doc(p50=0.1, throughput=10.0, speedup=5.0)
    new = _service_doc(p50=0.1, throughput=10.0, speedup=5.0)
    new["records"].append({"name": "incremental", "requests": 4,
                           "errors": 0, "wall_s": 1.0,
                           "latency_p50_s": 0.05})
    cmp = compare_documents("bench", base, new)
    assert cmp.ok  # brand-new metrics never fail the comparison
    assert "incremental.latency_p50_s" in cmp.only_new
    text = format_comparison(cmp)
    assert "[new]" in text and "REGRESSION" not in text


def test_unknown_bench_schema_degrades_to_generic_numbers():
    base = {"schema": "repro.bench_futurething/1",
            "records": [{"name": "alpha", "wall_s": 1.0, "widgets": 7}],
            "total_wall_s": 1.0}
    new = {"schema": "repro.bench_futurething/1",
           "records": [{"name": "alpha", "wall_s": 2.0, "widgets": 7}],
           "total_wall_s": 2.0}
    cmp = compare_documents("bench", base, new)  # must not raise
    names = {d.metric for d in cmp.deltas}
    assert "alpha.wall_s" in names and "total_wall_s" in names
    assert any(d.metric == "alpha.wall_s" and d.regression
               for d in cmp.deltas)


def test_truly_empty_bench_still_errors():
    with pytest.raises(CompareError):
        compare_documents("bench", {"schema": "repro.bench_x/1"},
                          {"schema": "repro.bench_x/1"})


def test_compare_files_service_end_to_end(tmp_path):
    base_path = tmp_path / "BENCH_load.json"
    new_path = tmp_path / "BENCH_load.new.json"
    base_path.write_text(json.dumps(
        _service_doc(p50=0.1, throughput=10.0, speedup=5.0)))
    new_path.write_text(json.dumps(
        _service_doc(p50=0.5, throughput=2.0, speedup=1.1)))
    cmp = compare_files(str(base_path), str(new_path))
    assert cmp.kind == "bench"
    assert not cmp.ok

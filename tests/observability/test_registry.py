"""Metrics registry: instrument semantics, Prometheus rendering, merge."""

import math

import pytest

from repro.observability import (
    MetricsRegistry,
    merge_registry_docs,
    prometheus_text,
)
from repro.observability.registry import _prom_name


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("rounds").inc()
        reg.counter("rounds").inc(2.5)
        assert reg.scalars()["rounds"] == 3.5

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("rounds").inc(-1)

    def test_gauge_set_and_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(5)
        g.max(3)       # below high-water mark: ignored by max()
        assert reg.scalars()["queue_depth"] == 5.0
        g.max(9)
        assert reg.scalars()["queue_depth"] == 9.0
        g.set(1)       # set() still moves freely
        assert reg.scalars()["queue_depth"] == 1.0

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 100.0):
            h.observe(v)
        doc = reg.export()["histograms"]["wait"]
        assert doc["counts"] == [1, 2, 1]  # (<=0.1, <=1.0, +Inf)
        assert doc["count"] == 4
        assert doc["sum"] == pytest.approx(101.05)

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="is a counter"):
            reg.gauge("x")

    def test_scalars_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("wait", buckets=(1.0,)).observe(0.5)
        flat = reg.scalars()
        assert flat["wait_sum"] == 0.5
        assert flat["wait_count"] == 1.0


class TestPrometheus:
    def test_text_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("messages_sent").inc(7)
        reg.gauge("final_cut").set(113)
        reg.histogram("recv_wait_s", buckets=(0.01, 1.0)).observe(0.5)
        text = reg.to_prometheus()
        assert "# TYPE repro_messages_sent counter" in text
        assert "repro_messages_sent 7" in text
        assert "# TYPE repro_final_cut gauge" in text
        assert "# TYPE repro_recv_wait_s histogram" in text
        assert 'repro_recv_wait_s_bucket{le="0.01"} 0' in text
        assert 'repro_recv_wait_s_bucket{le="1"} 1' in text
        assert 'repro_recv_wait_s_bucket{le="+Inf"} 1' in text
        assert "repro_recv_wait_s_sum 0.5" in text
        assert "repro_recv_wait_s_count 1" in text
        assert text.endswith("\n")

    def test_name_sanitisation(self):
        # ':' is legal in Prometheus names, '-' is not; leading digits
        # get an underscore prefix
        assert (_prom_name("phase_refine:level0-max", "repro_")
                == "repro_phase_refine:level0_max")
        assert "-" not in _prom_name("a-b", "repro_")
        assert _prom_name("0bad", "").startswith("_")

    def test_empty_doc_renders_empty(self):
        assert prometheus_text({}) == ""
        assert prometheus_text(None) == ""


class TestMerge:
    def test_merge_semantics(self):
        a = MetricsRegistry()
        a.counter("msgs").inc(3)
        a.gauge("depth").set(5)
        a.histogram("w", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.counter("msgs").inc(4)
        b.gauge("depth").set(2)
        b.histogram("w", buckets=(1.0,)).observe(2.0)
        merged = merge_registry_docs([a.export(), None, b.export()])
        assert merged["counters"]["msgs"] == 7.0
        assert merged["gauges"]["depth"] == 5.0  # max across PEs
        assert merged["histograms"]["w"]["counts"] == [1, 1]
        assert merged["histograms"]["w"]["count"] == 2

    def test_merge_incompatible_buckets_keeps_totals(self):
        a = MetricsRegistry()
        a.histogram("w", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("w", buckets=(2.0,)).observe(0.5)
        merged = merge_registry_docs([a.export(), b.export()])
        assert merged["histograms"]["w"]["count"] == 2
        assert merged["histograms"]["w"]["sum"] == 1.0

    def test_merged_doc_is_prometheus_renderable(self):
        a = MetricsRegistry()
        a.counter("c").inc()
        text = prometheus_text(merge_registry_docs([a.export()]))
        assert "repro_c 1" in text
        assert math.isfinite(1.0)  # sanity anchor for the import

    def test_incompatible_buckets_collapse_consistently(self):
        """Mismatched bucket bounds must not ship bucket lines that
        disagree with _count: the detail collapses to the +Inf bucket."""
        a = MetricsRegistry()
        a.histogram("w", buckets=(1.0, 2.0)).observe(0.5)
        a.histogram("w").observe(1.5)
        b = MetricsRegistry()
        b.histogram("w", buckets=(5.0,)).observe(4.0)
        merged = merge_registry_docs([a.export(), b.export()])
        assert merged["histograms"]["w"]["count"] == 3
        assert merged["histograms"]["w"]["sum"] == pytest.approx(6.0)
        assert merged["histograms"]["w"]["buckets"] == []
        assert merged["histograms"]["w"]["counts"] == [3]
        text = prometheus_text(merged)
        assert 'repro_w_bucket{le="+Inf"} 3' in text
        assert "repro_w_count 3" in text
        # order independence of the collapse
        flipped = merge_registry_docs([b.export(), a.export()])
        assert flipped["histograms"]["w"]["counts"] == [3]

    def test_merge_empty_registries(self):
        merged = merge_registry_docs([MetricsRegistry().export(),
                                      MetricsRegistry().export()])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}
        assert prometheus_text(merged) == ""
        assert merge_registry_docs([]) == \
            {"counters": {}, "gauges": {}, "histograms": {}}

    def test_duplicate_names_across_pes_fold_by_kind(self):
        """The same metric name on every PE: counters sum, gauges keep
        the max, histograms sum bucket-wise — no doubling, no clobber."""
        docs = []
        for pe in range(4):
            r = MetricsRegistry()
            r.counter("messages_sent").inc(10 + pe)
            r.gauge("peak_depth").set(float(pe))
            r.histogram("recv_wait_s", buckets=(0.01,)).observe(0.005)
            docs.append(r.export())
        merged = merge_registry_docs(docs)
        assert merged["counters"]["messages_sent"] == 46.0
        assert merged["gauges"]["peak_depth"] == 3.0
        assert merged["histograms"]["recv_wait_s"]["counts"] == [4, 0]
        assert merged["histograms"]["recv_wait_s"]["count"] == 4
        # one sample line per name, not one per PE
        text = prometheus_text(merged)
        assert text.count("repro_messages_sent 46") == 1
        assert text.count("repro_peak_depth 3") == 1

    def test_same_name_different_kind_across_pes(self):
        """A name used as a counter on one PE and a gauge on another
        merges into both sections (kinds are independent namespaces)."""
        a = MetricsRegistry()
        a.counter("x").inc(2)
        b = MetricsRegistry()
        b.gauge("x").set(9.0)
        merged = merge_registry_docs([a.export(), b.export()])
        assert merged["counters"]["x"] == 2.0
        assert merged["gauges"]["x"] == 9.0
        text = prometheus_text(merged)
        assert "# TYPE repro_x counter" in text
        assert "# TYPE repro_x gauge" in text

"""Metrics registry: counters, gauges and histograms with exporters.

A partitioning run keeps one book: every PE's communicator owns a
registry (``comm.metrics``: phase timers, counters, the observed
receive-wait histogram), the engine folds them with
:func:`merge_registry_docs` (counters and histograms sum; gauges keep
the max across PEs, the right fold for per-PE phase maxima and
high-water marks), and the driver merges that document with its own
run registry into ``KappaResult.metrics``, of which
``KappaResult.stats`` is a flat view.  :meth:`MetricsRegistry.export`
keeps instrument types and histogram shapes, and
:meth:`MetricsRegistry.to_prometheus` renders the standard Prometheus
text exposition (counters, gauges and cumulative
``_bucket``/``_sum``/``_count`` histogram series).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_registry_docs",
    "prometheus_text",
]

#: default histogram bucket upper bounds (seconds-flavoured, but any
#: positive quantity works; +Inf is implicit)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

_NAME_SANITISE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    """A legal Prometheus metric name (phase names contain ':'/'-')."""
    out = _NAME_SANITISE_RE.sub("_", prefix + name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += value


class Gauge:
    """Last-written value (set freely, up or down)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        """Keep the high-water mark (queue depths, per-PE phase maxima)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (cumulative export, Prometheus style)."""

    __slots__ = ("name", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Named metric instruments, created on first use.

    >>> reg = MetricsRegistry()
    >>> reg.counter("matching_rounds").inc(3)
    >>> reg.gauge("queue_depth").max(17)
    >>> reg.scalars()["matching_rounds"]
    3.0
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- views -----------------------------------------------------------
    def scalars(self) -> Dict[str, float]:
        """Flat ``{name: value}`` over counters and gauges (histograms
        appear as ``<name>_sum``/``<name>_count``)."""
        out: Dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[f"{name}_sum"] = metric.sum
                out[f"{name}_count"] = float(metric.count)
            else:
                out[name] = float(metric.value)
        return out

    def export(self) -> Dict[str, Any]:
        """JSON/wire-ready document (the trace's ``metrics`` section)."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Any] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                counters[name] = float(metric.value)
            elif isinstance(metric, Gauge):
                gauges[name] = float(metric.value)
            else:
                histograms[name] = {
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "sum": float(metric.sum),
                    "count": int(metric.count),
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition format 0.0.4."""
        return prometheus_text(self.export(), prefix=prefix)


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(doc: Optional[Dict[str, Any]],
                    prefix: str = "repro_") -> str:
    """Render a registry export document as Prometheus text exposition."""
    doc = doc or {}
    lines: List[str] = []
    for name, value in sorted((doc.get("counters") or {}).items()):
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_fmt(value)}")
    for name, value in sorted((doc.get("gauges") or {}).items()):
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_fmt(value)}")
    for name, hist in sorted((doc.get("histograms") or {}).items()):
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for bound, count in zip(list(hist["buckets"]) + [math.inf],
                                hist["counts"]):
            cumulative += count
            lines.append(
                f'{pname}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
            )
        lines.append(f"{pname}_sum {_fmt(hist['sum'])}")
        lines.append(f"{pname}_count {int(hist['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_registry_docs(docs: Iterable[Optional[Dict[str, Any]]],
                        ) -> Dict[str, Any]:
    """Fold registry export documents: counters and histograms sum,
    gauges keep the maximum (per-PE high-water-mark semantics)."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Any] = {}
    for doc in docs:
        if not doc:
            continue
        for name, value in (doc.get("counters") or {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in (doc.get("gauges") or {}).items():
            gauges[name] = max(gauges.get(name, float("-inf")),
                               float(value))
        for name, hist in (doc.get("histograms") or {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "sum": float(hist["sum"]),
                    "count": int(hist["count"]),
                }
            elif list(merged["buckets"]) == list(hist["buckets"]):
                merged["counts"] = [a + b for a, b in
                                    zip(merged["counts"], hist["counts"])]
                merged["sum"] += float(hist["sum"])
                merged["count"] += int(hist["count"])
            else:  # incompatible shapes: keep totals, drop the buckets
                merged["sum"] += float(hist["sum"])
                merged["count"] += int(hist["count"])
                # collapse the bucket detail to the single +Inf bucket so
                # the exposition stays internally consistent (the first
                # doc's bucket counts no longer cover every observation)
                merged["buckets"] = []
                merged["counts"] = [merged["count"]]
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}

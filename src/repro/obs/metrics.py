"""Counters, gauges and histograms for the simulated fleet.

The registry is deliberately tiny and dependency-free: metrics are named
(``dotted.names``), optionally labelled (sorted ``(key, value)`` tuples,
so label order never matters), and snapshot to plain dicts for the JSON
exporter.  The catalog produced by an instrumented run is documented in
``docs/observability.md``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Dict[str, Any]) -> LabelKey:
    """Normalise a label dict into a hashable, order-independent key."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing, optionally labelled counter."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, n: float = 1, **labels: Any) -> None:
        """Add *n* to the series selected by *labels*."""
        key = label_key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def inc_key(self, key: LabelKey, n: float = 1) -> None:
        """Add *n* to the series under an already normalised label *key*.

        The hot-path form of :meth:`inc` for callers that build each
        key once with :func:`label_key` and reuse it.
        """
        values = self._values
        values[key] = values.get(key, 0) + n

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0 if never incremented)."""
        return self._values.get(label_key(labels), 0)

    def total(self) -> float:
        """Sum across every labelled series."""
        return sum(self._values.values())

    def series(self) -> Dict[LabelKey, float]:
        """All labelled series, keyed by normalised label tuples."""
        return dict(self._values)

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-ready list of ``{labels, value}`` rows, label-sorted."""
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def merge_snapshot(self, rows: List[Dict[str, Any]]) -> None:
        """Fold another counter's :meth:`snapshot` rows into this one."""
        for row in rows:
            self.inc(row["value"], **row.get("labels", {}))


class Gauge:
    """A last-write-wins instantaneous value (plus its observed peak)."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        """Record the current value; the peak is tracked automatically."""
        self.value = value
        if value > self.peak:
            self.peak = value

    def snapshot(self) -> Dict[str, float]:
        """JSON-ready ``{value, peak}``."""
        return {"value": self.value, "peak": self.peak}

    def merge_snapshot(self, snap: Dict[str, float]) -> None:
        """Fold another gauge's snapshot into this one, element-wise max.

        Gauges are last-write-wins within one world; across shards there
        is no global write order, so the merge takes the maximum of both
        values and both peaks — deterministic regardless of shard count
        or completion order.
        """
        self.value = max(self.value, snap.get("value", 0.0))
        self.peak = max(self.peak, self.value, snap.get("peak", 0.0))


#: Default histogram bucket upper bounds (virtual seconds / generic units).
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    def __init__(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # +1 for the overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile from the bucket counts (None if empty).

        Standard fixed-bucket estimation (the ``histogram_quantile``
        idiom): find the bucket holding the target rank and interpolate
        linearly inside it, clamping to the observed min/max so tiny
        samples do not extrapolate past real data.  Samples in the
        overflow bucket estimate as the observed max.
        """
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            bucket_count = self.counts[i]
            if bucket_count and cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                value = lower + (bound - lower) * fraction
                if self.min is not None:
                    value = max(value, self.min)
                if self.max is not None:
                    value = min(value, self.max)
                return value
            cumulative += bucket_count
            lower = bound
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready summary with per-bucket counts."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                (f"le_{bound}" if i < len(self.bounds) else "inf"): self.counts[i]
                for i, bound in enumerate(list(self.bounds) + [None])
            },
        }

    @staticmethod
    def bounds_from_snapshot(snap: Dict[str, Any]) -> Tuple[float, ...]:
        """Recover the bucket upper bounds encoded in a snapshot's keys."""
        bounds = []
        for key in snap.get("buckets", {}):
            if key.startswith("le_"):
                raw = key[3:]
                bounds.append(float(raw) if "." in raw else int(raw))
        return tuple(sorted(bounds))

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another histogram's snapshot into this one (same buckets)."""
        if self.bounds != self.bounds_from_snapshot(snap):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge differing bucket bounds"
            )
        positions = {f"le_{bound}": i for i, bound in enumerate(self.bounds)}
        positions["inf"] = len(self.bounds)
        for key, count in snap.get("buckets", {}).items():
            self.counts[positions[key]] += count
        self.count += snap.get("count", 0)
        self.sum += snap.get("sum", 0.0)
        for other, pick in ((snap.get("min"), min), (snap.get("max"), max)):
            if other is not None:
                current = self.min if pick is min else self.max
                merged = other if current is None else pick(current, other)
                if pick is min:
                    self.min = merged
                else:
                    self.max = merged


class MetricsRegistry:
    """Lazily-created, name-addressed metric instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter called *name*."""
        if name not in self._counters:
            self._counters[name] = Counter(name, help)
        return self._counters[name]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge called *name*."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, help)
        return self._gauges[name]

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> Histogram:
        """Get or create the histogram called *name*."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, buckets, help)
        return self._histograms[name]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every instrument, grouped by type."""
        return {
            "counters": {n: c.snapshot() for n, c in sorted(self._counters.items())},
            "gauges": {n: g.snapshot() for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot() for n, h in sorted(self._histograms.items())},
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold one registry :meth:`snapshot` into this registry.

        The shard-merge primitive: counters and histograms add, gauges
        take element-wise maxima (see the per-instrument merge methods).
        Folding every shard's snapshot into one fresh registry yields
        totals equal to what a single serial run over the union of the
        shards would have counted.
        """
        for name, rows in snap.get("counters", {}).items():
            self.counter(name).merge_snapshot(rows)
        for name, gauge_snap in snap.get("gauges", {}).items():
            self.gauge(name).merge_snapshot(gauge_snap)
        for name, hist_snap in snap.get("histograms", {}).items():
            bounds = Histogram.bounds_from_snapshot(hist_snap)
            self.histogram(name, buckets=bounds).merge_snapshot(hist_snap)

    def render(self) -> str:
        """Fixed-width text table of every instrument."""
        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            lines.append(f"counter   {name:<34} total={counter.total():g}")
            for key, value in sorted(counter.series().items()):
                labels = ",".join(f"{k}={v}" for k, v in key) or "(unlabelled)"
                lines.append(f"          {'':<34} {labels:<44} {value:g}")
        for name, gauge in sorted(self._gauges.items()):
            lines.append(
                f"gauge     {name:<34} value={gauge.value:g} peak={gauge.peak:g}"
            )
        for name, hist in sorted(self._histograms.items()):
            quantiles = "  ".join(
                f"{label}={value:g}" if value is not None else f"{label}=-"
                for label, value in (
                    ("p50", hist.quantile(0.5)),
                    ("p90", hist.quantile(0.9)),
                    ("p99", hist.quantile(0.99)),
                )
            )
            lines.append(
                f"histogram {name:<34} n={hist.count} mean={hist.mean:.2f} "
                f"min={hist.min if hist.min is not None else '-'} "
                f"max={hist.max if hist.max is not None else '-'}  "
                + quantiles
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"

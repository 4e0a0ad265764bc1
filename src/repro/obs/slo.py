"""SLO-grade request observability: sketches, RED series, burn rates.

Four pieces, all dependency-free and snapshot/merge-symmetric so sharded
campaigns aggregate exactly like serial runs (``docs/slo.md``):

* :class:`LatencySketch` — a DDSketch-style log-linear latency sketch
  with relative-error-bounded quantiles.  Buckets are ``gamma**i``
  geometric bins; merging two sketches is per-bucket count addition, so
  quantiles of a merge are *bit-identical* to the quantiles of one
  sketch fed the union of the samples.  Each bucket optionally carries
  an **exemplar**: the trace id of the largest sample that landed in
  it, linking a p99 outlier straight to its span waterfall and
  forensic timeline entry.
* :class:`RedAccounting` — RED (rate, errors, duration) series keyed by
  ``(scope, action)``; scope is the vendor design for endpoint requests
  and the decision point for PDP timings.
* :class:`SLOTracker` — the availability series: virtual-time-binned
  ``(total, bad)`` request counts.  Served requests (including policy
  rejections — a denied attacker is a *correctly* served request) are
  good; infrastructure failures (chaos drops, timeouts) are bad.
* :class:`SLOSpec` + the ``evaluate_*`` functions — declarative
  objectives scored as error budgets, multi-window burn rates
  (Google-SRE style long/short window pairs) and per-fault-window
  breach verdicts.

Everything in :class:`SLOTracker` is deterministic (virtual timestamps,
seeded fault RNG); the sketches measure wall-clock handler latency and
are therefore only exported under ``include_wall=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default sketch relative-error bound: quantile estimates are within
#: 0.5% of the true sample value (tests assert <1% with headroom).
DEFAULT_ALPHA = 0.005

#: The quantiles every report renders.
REPORT_QUANTILES = (0.5, 0.9, 0.99)


def _quantile_label(q: float) -> str:
    """``0.99`` → ``"p99"``, ``0.5`` → ``"p50"``, ``0.999`` → ``"p99.9"``."""
    scaled = q * 100.0
    if abs(scaled - round(scaled)) < 1e-9:
        return f"p{int(round(scaled))}"
    return f"p{scaled:g}"


class LatencySketch:
    """A mergeable log-linear (DDSketch/HDR-style) latency sketch.

    A sample ``v > 0`` lands in bucket ``i = ceil(ln(v) / ln(gamma))``
    with ``gamma = (1 + alpha) / (1 - alpha)``; the bucket's midpoint
    estimate ``2 * gamma**i / (gamma + 1)`` is within ``alpha`` relative
    error of every value in the bucket, so any quantile estimate is
    too.  Non-positive samples are tallied in a dedicated zero bucket.

    Buckets are kept sparse (a dict), so the sketch covers nanoseconds
    to minutes in a few hundred entries.  Merging adds per-bucket
    counts — associative and commutative — which is what makes sharded
    p50/p90/p99 equal serial ones bit-for-bit.
    """

    __slots__ = (
        "alpha", "gamma", "_log_gamma", "count", "sum", "min", "max",
        "zero_count", "buckets", "exemplars",
    )

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zero_count = 0
        #: sparse bucket index -> sample count
        self.buckets: Dict[int, int] = {}
        #: bucket index -> (value, trace_id) of the largest sample seen
        #: there; the (value, trace) tuple-max rule is commutative, so
        #: merged exemplars are independent of merge grouping/order
        self.exemplars: Dict[int, Tuple[float, str]] = {}

    def _index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._log_gamma))

    def _estimate(self, index: int) -> float:
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def observe(self, value: float, trace_id: str = "") -> None:
        """Record one sample (optionally tagged with its trace id)."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if trace_id:
            candidate = (value, trace_id)
            best = self.exemplars.get(index)
            if best is None or candidate > best:
                self.exemplars[index] = candidate

    def observe_many(self, values: Sequence[float], traces: Sequence[str]) -> None:
        """Record ``values[i]`` tagged ``traces[i]``, in order.

        The same sketch as calling :meth:`observe` on each pair in turn:
        the same bucket index, the same ``sum`` order, the same exemplar
        rule, and ``min``/``max`` keep the first extreme, as the
        builtins do.  A losing exemplar candidate is compared field by
        field, which is the tuple order without building the tuple.
        """
        if not values:
            return
        low = min(values)
        if self.min is None or low < self.min:
            self.min = low
        high = max(values)
        if self.max is None or high > self.max:
            self.max = high
        self.count += len(values)
        total = self.sum
        buckets = self.buckets
        exemplars = self.exemplars
        log = math.log
        ceil = math.ceil
        log_gamma = self._log_gamma
        for value, trace_id in zip(values, traces):
            total += value
            if value <= 0.0:
                self.zero_count += 1
                continue
            index = ceil(log(value) / log_gamma)
            buckets[index] = buckets.get(index, 0) + 1
            if trace_id:
                best = exemplars.get(index)
                if (best is None or value > best[0]
                        or (value == best[0] and trace_id > best[1])):
                    exemplars[index] = (value, trace_id)
        self.sum = total

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile (``0 <= q <= 1``); None when empty.

        Walks buckets in index order to the sample of rank
        ``floor(q * (count - 1))`` and returns its bucket's midpoint
        estimate — within ``alpha`` relative error of the true sample.
        """
        if self.count == 0:
            return None
        rank = int(q * (self.count - 1))
        if rank < self.zero_count:
            return 0.0
        cumulative = self.zero_count
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                return self._estimate(index)
        return self.max

    def quantiles(
        self, qs: Sequence[float] = REPORT_QUANTILES
    ) -> Dict[str, Optional[float]]:
        """The labelled report quantiles, e.g. ``{"p50": ..., "p99": ...}``."""
        return {_quantile_label(q): self.quantile(q) for q in qs}

    def exemplar(self, q: float) -> Optional[Dict[str, Any]]:
        """The exemplar nearest (at or above) the *q*-quantile's bucket.

        Returns ``{"trace": ..., "value": ...}`` for the first bucket at
        or past the quantile bucket that carries one — the trace to pull
        up when asking "what does a p99 request look like?".
        """
        if self.count == 0:
            return None
        rank = int(q * (self.count - 1))
        cumulative = self.zero_count
        reached = False
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                reached = True
            if reached and index in self.exemplars:
                value, trace = self.exemplars[index]
                return {"trace": trace, "value": value}
        return None

    def over_threshold(self, threshold: float) -> int:
        """Samples estimated above *threshold* (bounded-error count)."""
        if threshold <= 0.0:
            return self.count - self.zero_count
        limit = self._index(threshold)
        return sum(c for i, c in self.buckets.items() if i > limit)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dict; :meth:`merge_snapshot` is its exact inverse."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zero": self.zero_count,
            "buckets": {str(i): c for i, c in sorted(self.buckets.items())},
            "exemplars": {
                str(i): {"value": v, "trace": t}
                for i, (v, t) in sorted(self.exemplars.items())
            },
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another sketch's snapshot into this one (same ``alpha``)."""
        if abs(snap.get("alpha", self.alpha) - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({snap.get('alpha')} vs {self.alpha})"
            )
        self.count += snap.get("count", 0)
        self.sum += snap.get("sum", 0.0)
        self.zero_count += snap.get("zero", 0)
        for other, pick in ((snap.get("min"), min), (snap.get("max"), max)):
            if other is not None:
                current = self.min if pick is min else self.max
                merged = other if current is None else pick(current, other)
                if pick is min:
                    self.min = merged
                else:
                    self.max = merged
        for key, count in snap.get("buckets", {}).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + count
        for key, row in snap.get("exemplars", {}).items():
            index = int(key)
            candidate = (row["value"], row["trace"])
            if index not in self.exemplars or candidate > self.exemplars[index]:
                self.exemplars[index] = candidate

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "LatencySketch":
        """Rebuild a sketch from its :meth:`snapshot`."""
        sketch = cls(alpha=snap.get("alpha", DEFAULT_ALPHA))
        sketch.merge_snapshot(snap)
        return sketch


class RedSeries:
    """One (scope, action) RED series: requests, errors, duration sketch."""

    __slots__ = ("requests", "errors", "sketch")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        self.requests = 0
        #: non-"ok" outcome code -> count
        self.errors: Dict[str, int] = {}
        self.sketch = LatencySketch(alpha=alpha)

    @property
    def error_count(self) -> int:
        """Total requests that finished with a non-``ok`` outcome."""
        return sum(self.errors.values())


#: Separator joining (scope, action) into one snapshot key; neither
#: design names nor action names contain it.
_KEY_SEP = "|"


#: Samples a :class:`RedAccounting` buffers per series before it folds
#: them in.  A bound, not a knob: it caps the buffer of an accounting
#: nothing ever reads, and keeps each fold's loop warm.
RED_BATCH = 256


class _Pending:
    """One series' samples recorded and not yet folded into it.

    Held as untracked parts: the durations and trace ids in two
    parallel lists (a float and a string are not objects the cyclic
    collector tracks), and the non-``ok`` outcomes already counted.
    It folds into its accounting's series map, which it shares, so it
    holds no reference back to the accounting.
    """

    __slots__ = ("key", "all_series", "alpha", "durations", "traces", "errors")

    def __init__(
        self, key: Tuple[str, str], all_series: Dict[Tuple[str, str], RedSeries],
        alpha: float,
    ) -> None:
        self.key = key
        self.all_series = all_series
        self.alpha = alpha
        self.durations: List[float] = []
        self.traces: List[str] = []
        self.errors: Dict[str, int] = {}

    def add(self, outcome: str, duration_us: float, trace_id: str = "") -> None:
        """Buffer one sample; fold once :data:`RED_BATCH` are buffered."""
        self.durations.append(duration_us)
        self.traces.append(trace_id)
        if outcome != "ok":
            errors = self.errors
            errors[outcome] = errors.get(outcome, 0) + 1
        if len(self.durations) >= RED_BATCH:
            self.fold()

    def fold(self) -> None:
        """Fold the buffered samples into the series, in order, and clear them."""
        durations = self.durations
        if not durations:
            return
        series = self.all_series.get(self.key)
        if series is None:
            series = self.all_series[self.key] = RedSeries(alpha=self.alpha)
        series.requests += len(durations)
        errors = series.errors
        for code, count in self.errors.items():
            errors[code] = errors.get(code, 0) + count
        series.sketch.observe_many(durations, self.traces)
        durations.clear()
        self.traces.clear()
        self.errors.clear()


class RedAccounting:
    """RED (rate, errors, duration) accounting keyed by (scope, action).

    The scope is the vendor design name for endpoint requests and a
    caller-chosen label (e.g. the decision point) for internal timings.
    Durations are wall-clock microseconds.  Snapshots merge per-series:
    request/error counts add and sketches merge, so fleet-wide RED
    numbers from sharded campaigns equal a serial run's.

    Recording a sample only buffers it in its series' :class:`_Pending`,
    which allocates nothing the cyclic collector tracks.  A buffer is
    folded into its series, in recording order, once it holds
    :data:`RED_BATCH` samples, and every buffer is folded before any
    read, so every read sees exactly what recording each sample on
    arrival would have built.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        self.alpha = alpha
        self._series: Dict[Tuple[str, str], RedSeries] = {}
        self._pending: Dict[Tuple[str, str], _Pending] = {}

    def record(
        self,
        scope: str,
        action: str,
        outcome: str,
        duration_us: float,
        trace_id: str = "",
    ) -> None:
        """Record one finished request: outcome plus wall duration (µs).

        Resolves the series on every call; a caller recording many
        samples into one series keeps its :meth:`recorder` instead.
        """
        self.recorder(scope, action)(outcome, duration_us, trace_id)

    def recorder(self, scope: str, action: str) -> Callable[..., None]:
        """:meth:`record` for one (scope, action), with the key resolved once.

        Returns ``add(outcome, duration_us, trace_id="")``.  It records
        into this accounting only, whatever a caller later installs in
        its place.
        """
        key = (scope, action)
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _Pending(key, self._series, self.alpha)
        return pending.add

    def _fold(self) -> None:
        """Fold every series' buffer (before any read)."""
        for pending in self._pending.values():
            pending.fold()

    def series(self) -> Dict[Tuple[str, str], RedSeries]:
        """All series keyed by ``(scope, action)`` (live references)."""
        self._fold()
        return dict(self._series)

    def total_requests(self) -> int:
        """Requests across every series."""
        self._fold()
        return sum(s.requests for s in self._series.values())

    def total_errors(self) -> int:
        """Non-``ok`` requests across every series."""
        self._fold()
        return sum(s.error_count for s in self._series.values())

    def combined_sketch(self, scope: Optional[str] = None) -> LatencySketch:
        """One sketch merging every series (optionally one scope only)."""
        self._fold()
        merged = LatencySketch(alpha=self.alpha)
        for (series_scope, _), series in sorted(self._series.items()):
            if scope is not None and series_scope != scope:
                continue
            merged.merge_snapshot(series.sketch.snapshot())
        return merged

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dict keyed ``"scope|action"``; mergeable."""
        self._fold()
        return {
            "alpha": self.alpha,
            "series": {
                _KEY_SEP.join(key): {
                    "requests": series.requests,
                    "errors": dict(sorted(series.errors.items())),
                    "sketch": series.sketch.snapshot(),
                }
                for key, series in sorted(self._series.items())
            },
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another accounting's :meth:`snapshot` into this one."""
        self._fold()
        for joined, row in snap.get("series", {}).items():
            scope, _, action = joined.partition(_KEY_SEP)
            key = (scope, action)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = RedSeries(alpha=self.alpha)
            series.requests += row.get("requests", 0)
            for code, count in row.get("errors", {}).items():
                series.errors[code] = series.errors.get(code, 0) + count
            series.sketch.merge_snapshot(row.get("sketch", {}))

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "RedAccounting":
        """Rebuild an accounting from its :meth:`snapshot`."""
        red = cls(alpha=snap.get("alpha", DEFAULT_ALPHA))
        red.merge_snapshot(snap)
        return red


class SLOTracker:
    """The availability series: virtual-time-binned (total, bad) counts.

    Good events are requests the cloud actually served — including
    policy rejections, because denying an attacker is correct service.
    Bad events are infrastructure failures: chaos drops and timeouts
    reported through the observer seam.  Both are stamped with virtual
    time, so the series is deterministic for a given seed and merges
    bit-identically across shards.
    """

    def __init__(self, bin_seconds: float = 1.0) -> None:
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        self.bin_seconds = bin_seconds
        #: bin index -> [total, bad]
        self._bins: Dict[int, List[int]] = {}
        self.bad_by_cause: Dict[str, int] = {}

    def _bin(self, now: float) -> List[int]:
        index = int(now // self.bin_seconds)
        cell = self._bins.get(index)
        if cell is None:
            cell = self._bins[index] = [0, 0]
        return cell

    def record_request(self, now: float, n: int = 1) -> None:
        """Count *n* served (good) requests at virtual time *now*."""
        self._bin(now)[0] += n

    def record_bad(self, now: float, cause: str, n: int = 1) -> None:
        """Count *n* failed requests (e.g. chaos drop/timeout) at *now*."""
        cell = self._bin(now)
        cell[0] += n
        cell[1] += n
        self.bad_by_cause[cause] = self.bad_by_cause.get(cause, 0) + n

    @property
    def total(self) -> int:
        """All events (good + bad)."""
        return sum(cell[0] for cell in self._bins.values())

    @property
    def bad(self) -> int:
        """All bad events."""
        return sum(cell[1] for cell in self._bins.values())

    def window_counts(self, start: float, end: float) -> Tuple[int, int]:
        """``(total, bad)`` within virtual time ``[start, end)``."""
        first = int(start // self.bin_seconds)
        last = int(math.ceil(end / self.bin_seconds))
        total = 0
        bad = 0
        for index, (cell_total, cell_bad) in self._bins.items():
            if first <= index < last:
                total += cell_total
                bad += cell_bad
        return total, bad

    def bins(self) -> Dict[int, Tuple[int, int]]:
        """All bins as ``{index: (total, bad)}``, for evaluation."""
        return {index: (cell[0], cell[1]) for index, cell in self._bins.items()}

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dict (deterministic); mergeable across shards."""
        return {
            "bin_seconds": self.bin_seconds,
            "total": self.total,
            "bad": self.bad,
            "bad_by_cause": dict(sorted(self.bad_by_cause.items())),
            "bins": {
                str(index): list(cell) for index, cell in sorted(self._bins.items())
            },
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another tracker's :meth:`snapshot` into this one."""
        if snap.get("bin_seconds", self.bin_seconds) != self.bin_seconds:
            raise ValueError("cannot merge trackers with different bin sizes")
        for key, (total, bad) in snap.get("bins", {}).items():
            cell = self._bins.setdefault(int(key), [0, 0])
            cell[0] += total
            cell[1] += bad
        for cause, count in snap.get("bad_by_cause", {}).items():
            self.bad_by_cause[cause] = self.bad_by_cause.get(cause, 0) + count

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "SLOTracker":
        """Rebuild a tracker from its :meth:`snapshot`."""
        tracker = cls(bin_seconds=snap.get("bin_seconds", 1.0))
        tracker.merge_snapshot(snap)
        return tracker


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate alert pair (Google SRE chapter 5).

    Fires when the error-budget burn rate over *both* the long and the
    short trailing window is at least *factor* — the long window keeps
    the alert meaningful, the short window makes it reset quickly.
    """

    long_seconds: float
    short_seconds: float
    factor: float

    def scaled(self, horizon: float) -> "BurnWindow":
        """Shrink the windows to fit a run of *horizon* virtual seconds.

        The canonical pairs assume hours of traffic; simulated runs are
        a few virtual minutes, so windows longer than the horizon clamp
        to it (keeping the long:short ratio).
        """
        if self.long_seconds <= horizon:
            return self
        ratio = self.short_seconds / self.long_seconds
        return BurnWindow(horizon, max(1.0, horizon * ratio), self.factor)


#: Default long/short alert pairs (seconds, factor) per the SRE workbook:
#: 14.4x burn over 1h/5m pages, 6x over 6h/30m tickets — here scaled to
#: virtual-minute horizons by :meth:`BurnWindow.scaled`.
DEFAULT_BURN_WINDOWS = (
    BurnWindow(long_seconds=60.0, short_seconds=5.0, factor=14.4),
    BurnWindow(long_seconds=300.0, short_seconds=30.0, factor=6.0),
)


@dataclass(frozen=True)
class SLOSpec:
    """A declarative service-level objective for one run.

    ``objective`` is the availability target (fraction of requests
    served); ``latency_us`` is the per-request wall-latency threshold a
    compliant request must finish under; ``windows`` are the burn-rate
    alert pairs evaluated over the availability series.
    """

    name: str = "binding-api"
    objective: float = 0.999
    latency_us: float = 1000.0
    windows: Tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction, ``1 - objective``."""
        return 1.0 - self.objective


def burn_rate(
    tracker: SLOTracker, start: float, end: float, objective: float
) -> Optional[float]:
    """Error-budget burn rate over ``[start, end)``; None without traffic.

    1.0 means failures arrive exactly at budget pace; ``N`` means the
    budget is being consumed ``N`` times too fast.
    """
    total, bad = tracker.window_counts(start, end)
    if total == 0:
        return None
    budget = 1.0 - objective
    if budget <= 0.0:
        return math.inf if bad else 0.0
    return (bad / total) / budget


def evaluate_availability(
    tracker: SLOTracker, spec: SLOSpec
) -> Dict[str, Any]:
    """Score the availability series against *spec*.

    Returns totals, achieved availability, error-budget consumption and
    one row per burn window: the peak long/short-window burn rates and
    the first virtual time at which the pair alerted (both windows at
    or above the factor), or None if it never fired.
    """
    bins = tracker.bins()
    total = sum(cell[0] for cell in bins.values())
    bad = sum(cell[1] for cell in bins.values())
    achieved = (total - bad) / total if total else 1.0
    budget = spec.error_budget
    consumed = (bad / total) / budget if total and budget > 0 else 0.0
    horizon = (
        (max(bins) + 1) * tracker.bin_seconds if bins else 0.0
    )
    windows = []
    for window in spec.windows:
        scaled = window.scaled(horizon) if horizon else window
        max_long = 0.0
        max_short = 0.0
        alert_at: Optional[float] = None
        for index in sorted(bins):
            end = (index + 1) * tracker.bin_seconds
            long_burn = burn_rate(
                tracker, end - scaled.long_seconds, end, spec.objective
            )
            short_burn = burn_rate(
                tracker, end - scaled.short_seconds, end, spec.objective
            )
            if long_burn is not None:
                max_long = max(max_long, long_burn)
            if short_burn is not None:
                max_short = max(max_short, short_burn)
            if (
                alert_at is None
                and long_burn is not None
                and short_burn is not None
                and long_burn >= scaled.factor
                and short_burn >= scaled.factor
            ):
                alert_at = end
        windows.append({
            "long_seconds": scaled.long_seconds,
            "short_seconds": scaled.short_seconds,
            "factor": scaled.factor,
            "max_long_burn": max_long,
            "max_short_burn": max_short,
            "alert_at": alert_at,
        })
    return {
        "objective": spec.objective,
        "total": total,
        "bad": bad,
        "achieved": achieved,
        "error_budget": budget,
        "budget_consumed": consumed,
        "met": achieved >= spec.objective,
        "bad_by_cause": dict(sorted(tracker.bad_by_cause.items())),
        "windows": windows,
    }


def evaluate_latency(
    sketch: LatencySketch, spec: SLOSpec
) -> Dict[str, Any]:
    """Score a duration sketch against the spec's latency threshold."""
    over = sketch.over_threshold(spec.latency_us)
    compliant = (
        (sketch.count - over) / sketch.count if sketch.count else 1.0
    )
    return {
        "threshold_us": spec.latency_us,
        "count": sketch.count,
        "over_threshold": over,
        "compliance": compliant,
        "met": compliant >= spec.objective,
        "quantiles_us": sketch.quantiles(),
        "exemplar_p99": sketch.exemplar(0.99),
    }


def fault_windows(plan: Any) -> List[Dict[str, Any]]:
    """The scoreable outage windows of a (scaled) chaos fault plan.

    Brownouts and partitions have explicit ``[start, end)`` windows; a
    cloud restart is scored as a one-bin point event at its firing time.
    """
    windows: List[Dict[str, Any]] = []
    for brownout in getattr(plan, "brownouts", ()):
        windows.append(
            {"kind": "brownout", "start": brownout.start, "end": brownout.end}
        )
    for partition in getattr(plan, "partitions", ()):
        windows.append({
            "kind": "partition",
            "start": partition.start,
            "end": partition.end,
            "groups": list(getattr(partition, "groups", ())),
        })
    for restart in getattr(plan, "restarts", ()):
        windows.append(
            {"kind": "restart", "start": restart.at, "end": restart.at + 1.0}
        )
    return sorted(windows, key=lambda w: (w["start"], w["end"], w["kind"]))


def score_fault_windows(
    tracker: SLOTracker, spec: SLOSpec, plan: Any
) -> List[Dict[str, Any]]:
    """Verdict per fault window: SLO breach vs graceful degradation.

    A window **breaches** when the bad events inside it alone exceed
    the whole run's error budget (``total * (1 - objective)``) — the
    outage consumed more than everything the objective allows.  Bad
    events without budget exhaustion **degrade** gracefully; a window
    the clients rode out entirely (retries, backoff, failover) is
    **unaffected** — that difference is exactly what separates vendor
    designs with resilient clients from those without.
    """
    run_total = tracker.total
    budget_events = run_total * spec.error_budget
    verdicts = []
    for window in fault_windows(plan):
        total, bad = tracker.window_counts(window["start"], window["end"])
        if bad > budget_events:
            verdict = "breach"
        elif bad > 0:
            verdict = "degraded"
        else:
            verdict = "unaffected"
        row = dict(window)
        row.update(total=total, bad=bad, verdict=verdict)
        verdicts.append(row)
    return verdicts


@dataclass
class SLOReport:
    """One run scored against one :class:`SLOSpec` (render/JSON-ready)."""

    spec: SLOSpec
    availability: Dict[str, Any]
    latency: Optional[Dict[str, Any]] = None
    faults: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able report payload."""
        data: Dict[str, Any] = {
            "slo": {
                "name": self.spec.name,
                "objective": self.spec.objective,
                "latency_us": self.spec.latency_us,
            },
            "availability": self.availability,
        }
        if self.latency is not None:
            data["latency"] = self.latency
        if self.faults:
            data["faults"] = self.faults
        return data

    def render(self) -> str:
        """Multi-line text report (the ``repro slo`` output core)."""
        avail = self.availability
        lines = [
            f"SLO {self.spec.name}: objective {self.spec.objective:.4%} "
            f"latency<{self.spec.latency_us:g}us",
            f"  availability: {avail['achieved']:.4%} "
            f"({avail['bad']}/{avail['total']} bad) -> "
            f"{'met' if avail['met'] else 'MISSED'}; "
            f"budget consumed {avail['budget_consumed']:.1%}",
        ]
        causes = avail.get("bad_by_cause", {})
        if causes:
            lines.append(
                "  bad by cause: "
                + "  ".join(f"{cause}={count}" for cause, count in causes.items())
            )
        for window in avail["windows"]:
            alert = window["alert_at"]
            lines.append(
                f"  burn {window['long_seconds']:g}s/{window['short_seconds']:g}s "
                f"(x{window['factor']:g}): max {window['max_long_burn']:.1f}/"
                f"{window['max_short_burn']:.1f} -> "
                + (f"ALERT at t={alert:g}s" if alert is not None else "quiet")
            )
        if self.latency is not None:
            lat = self.latency
            quantiles = "  ".join(
                f"{label}={value:.1f}us" if value is not None else f"{label}=-"
                for label, value in lat["quantiles_us"].items()
            )
            lines.append(
                f"  latency: {quantiles}  compliance "
                f"{lat['compliance']:.4%} "
                f"({lat['over_threshold']}/{lat['count']} over "
                f"{lat['threshold_us']:g}us) -> "
                f"{'met' if lat['met'] else 'MISSED'}"
            )
            exemplar = lat.get("exemplar_p99")
            if exemplar:
                lines.append(
                    f"  p99 exemplar: trace={exemplar['trace']} "
                    f"({exemplar['value']:.1f}us)"
                )
        for row in self.faults:
            lines.append(
                f"  fault {row['kind']} [{row['start']:g}s, {row['end']:g}s): "
                f"{row['bad']}/{row['total']} bad -> {row['verdict']}"
            )
        return "\n".join(lines)


def evaluate_slo(
    tracker: SLOTracker,
    spec: SLOSpec,
    sketch: Optional[LatencySketch] = None,
    plan: Any = None,
) -> SLOReport:
    """Score one run: availability, optional latency, optional faults."""
    return SLOReport(
        spec=spec,
        availability=evaluate_availability(tracker, spec),
        latency=evaluate_latency(sketch, spec) if sketch is not None else None,
        faults=score_fault_windows(tracker, spec, plan) if plan is not None else [],
    )


def merge_sketch_snapshots(
    snapshots: Iterable[Dict[str, Any]]
) -> LatencySketch:
    """Fold sketch snapshots into one sketch (the shard-merge helper)."""
    merged: Optional[LatencySketch] = None
    for snap in snapshots:
        if merged is None:
            merged = LatencySketch(alpha=snap.get("alpha", DEFAULT_ALPHA))
        merged.merge_snapshot(snap)
    return merged if merged is not None else LatencySketch()

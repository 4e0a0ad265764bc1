"""Unit tests for the observability primitives (repro.obs)."""

import enum
import json

import pytest

from repro.cloud.audit import AuditLog
from repro.core.errors import ConfigurationError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import NULL_CONTEXT, NULL_OBSERVER, Observer
from repro.obs.profiler import Profiler
from repro.obs.runtime import Observability
from repro.obs.tracer import Tracer
from repro.obs.export import merge_snapshots, render_report, snapshot, to_json


class TestTracer:
    def make(self):
        tracer = Tracer()
        state = {"t": 0.0}
        tracer.set_time_source(lambda: state["t"])
        return tracer, state

    def test_nesting_builds_hierarchy(self):
        tracer, state = self.make()
        with tracer.span("scenario", kind="scenario"):
            state["t"] = 1.0
            with tracer.span("phase-a"):
                tracer.event("msg-1")
                state["t"] = 2.0
            with tracer.span("phase-b"):
                state["t"] = 3.5
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["phase-a", "phase-b"]
        assert root.children[0].children[0].name == "msg-1"
        assert root.start == 0.0 and root.end == 3.5
        assert root.children[0].duration == pytest.approx(1.0)

    def test_exception_marks_span_error(self):
        tracer, _ = self.make()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.roots[0].outcome == "error"
        # the stack unwound: a new span is a root, not a child of "boom"
        with tracer.span("next"):
            pass
        assert [r.name for r in tracer.roots] == ["boom", "next"]

    def test_span_cap_drops_not_crashes(self):
        tracer, _ = self.make()
        tracer.max_spans = 3
        for i in range(5):
            tracer.event(f"e{i}")
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert "dropped" in tracer.render()

    def test_signature_excludes_wall_clock(self):
        tracer, _ = self.make()
        with tracer.span("a"):
            pass
        sig = tracer.signature()
        tracer.roots[0].wall_ns += 123456
        assert tracer.signature() == sig

    def test_render_elides_long_exchange_runs(self):
        tracer, _ = self.make()
        with tracer.span("phase"):
            for i in range(20):
                tracer.event(f"msg{i}")
        text = tracer.render(max_exchanges_per_span=5)
        assert "15 more exchanges elided" in text

    def test_walk_visits_every_span(self):
        tracer, _ = self.make()
        with tracer.span("a"):
            tracer.event("b")
        with tracer.span("c"):
            pass
        assert sorted(s.name for s in tracer.walk()) == ["a", "b", "c"]


class TestMetrics:
    def test_counter_labels_are_order_independent(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2
        assert counter.total() == 2

    def test_gauge_tracks_peak(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.peak == 5

    def test_histogram_buckets_and_stats(self):
        hist = Histogram("h", buckets=(10, 100))
        for value in (1, 50, 500):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 551
        assert hist.min == 1 and hist.max == 500
        snap = hist.snapshot()
        assert snap["buckets"] == {"le_10": 1, "le_100": 1, "inf": 1}

    def test_registry_reuses_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        registry.counter("x").inc()
        assert registry.snapshot()["counters"]["x"][0]["value"] == 1
        assert "counter" in registry.render()


class TestProfiler:
    def test_sections_accumulate(self):
        profiler = Profiler()
        with profiler.section("hot"):
            pass
        with profiler.section("hot"):
            pass
        assert profiler.calls["hot"] == 2
        assert profiler.total_ns["hot"] >= 0
        assert "hot" in profiler.render()
        assert profiler.snapshot()["hot"]["calls"] == 2


def hooks():
    """The names of all observer hook methods."""
    return sorted(name for name in vars(Observer) if not name.startswith("_"))


class TestObserverProtocol:
    def test_null_observer_hooks_are_noops(self):
        for name in hooks():
            hook = getattr(NULL_OBSERVER, name)
            assert callable(hook)
        assert NULL_OBSERVER.span("x").__enter__() is None
        assert NULL_OBSERVER.profile("x") is NULL_CONTEXT

    def test_observability_implements_every_hook(self):
        obs = Observability()
        for name in hooks():
            assert callable(getattr(obs, name)), name
        assert isinstance(obs, Observer)

    def test_audit_counters_follow_a_replaced_registry(self):
        # A warm restore installs a fresh registry after the world was
        # built; entries recorded after that must land in the new one.
        obs = Observability(trace_messages=False)
        log = AuditLog(observer=obs)
        log.record(0.0, "app:0", "-", "Login", "ok")
        obs.metrics = MetricsRegistry()
        log.record(1.0, "app:0", "-", "Login", "ok")
        log.record(2.0, "app:0", "-", "Login", "bad-password")
        assert obs.metrics.counter("cloud.audit.entries").total() == 2
        assert obs.metrics.counter("cloud.audit.ok").total() == 1
        assert obs.metrics.counter("cloud.audit.rejected").total() == 1


class TestExport:
    def build(self):
        obs = Observability()
        obs.tracer.set_time_source(lambda: 1.5)
        with obs.span("scenario", kind="scenario"):
            obs.event("msg")
        obs.count("c", 2, k="v")
        obs.gauge("g", 7)
        obs.observe("h", 3)
        with obs.profile("section"):
            pass
        return obs

    def test_snapshot_roundtrips_through_json(self):
        obs = self.build()
        data = json.loads(to_json(obs))
        assert data["version"] == 2
        assert data["spans"][0]["name"] == "scenario"
        assert data["spans"][0]["children"][0]["name"] == "msg"
        assert data["metrics"]["counters"]["c"][0]["value"] == 2
        assert data["profile"]["section"]["calls"] == 1

    def test_snapshot_without_wall_is_deterministic_fields_only(self):
        obs = self.build()
        data = snapshot(obs, include_wall=False)
        assert "profile" not in data
        assert "wall_ns" not in json.dumps(data)

    def test_render_report_contains_all_sections(self):
        text = render_report(self.build())
        assert "== span tree (virtual time) ==" in text
        assert "== metrics ==" in text
        assert "== wall-clock profile ==" in text

    def build_forest(self, events=6):
        obs = Observability()
        obs.tracer.set_time_source(lambda: 0.0)
        with obs.span("scenario", kind="scenario"):
            for i in range(events):
                obs.event(f"msg{i}")
        return obs

    def test_max_spans_caps_export_with_drop_accounting(self):
        obs = self.build_forest(events=6)  # 7 spans total
        data = snapshot(obs, max_spans=3)
        assert data["spans_exported"] == 3
        assert data["export_spans_dropped"] == 4
        # parent survives before children: the cap keeps a well-formed tree
        assert data["spans"][0]["name"] == "scenario"
        assert len(data["spans"][0]["children"]) == 2

    def test_max_spans_none_exports_everything(self):
        obs = self.build_forest(events=6)
        data = snapshot(obs)
        assert data["spans_exported"] == 7
        assert data["export_spans_dropped"] == 0

    def test_max_spans_zero_drops_all_spans_but_keeps_metrics(self):
        obs = self.build_forest(events=2)
        obs.count("kept", 5)
        data = snapshot(obs, max_spans=0)
        assert data["spans"] == []
        assert data["export_spans_dropped"] == 3
        assert data["metrics"]["counters"]["kept"][0]["value"] == 5

    class Mode(str, enum.Enum):
        CALM = "calm"

    @pytest.mark.parametrize(
        "value", [Mode.CALM, enum.Enum("Plain", "A").A, b"raw", ("a", 1)],
        ids=["str-enum", "enum", "bytes", "tuple"],
    )
    def test_non_scalar_span_attribute_is_a_typed_error(self, value):
        obs = self.build_forest(events=1)
        with obs.span("scenario-2", kind="scenario"):
            with obs.span("phase", mode=value):
                obs.event("msg")
        with pytest.raises(ConfigurationError, match="'phase'.*'mode'"):
            snapshot(obs)

    def test_exact_json_scalars_are_carried(self):
        obs = Observability()
        with obs.span("s", kind="scenario", a="x", b=1, c=2.5, d=True, e=None):
            pass
        attrs = snapshot(obs)["spans"][0]["attrs"]
        assert attrs == {"a": "x", "b": 1, "c": 2.5, "d": True, "e": None}
        assert [type(attrs[k]) for k in "abcde"] == [str, int, float, bool, type(None)]


class TestMetricsMerge:
    def test_counter_merge_adds_per_label_series(self):
        a, b = Counter("c"), Counter("c")
        a.inc(2, outcome="ok")
        b.inc(3, outcome="ok")
        b.inc(1, outcome="rejected")
        a.merge_snapshot(b.snapshot())
        assert a.value(outcome="ok") == 5
        assert a.value(outcome="rejected") == 1
        assert a.total() == 6

    def test_gauge_merge_takes_elementwise_max(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(9)
        a.set(2)
        b.set(5)
        b.set(3)
        a.merge_snapshot(b.snapshot())
        assert a.value == 3
        assert a.peak == 9

    def test_histogram_merge_adds_buckets_and_stats(self):
        a, b = Histogram("h", buckets=(10, 100)), Histogram("h", buckets=(10, 100))
        for value in (1, 50):
            a.observe(value)
        for value in (500, 5):
            b.observe(value)
        a.merge_snapshot(b.snapshot())
        assert a.count == 4
        assert a.sum == 556
        assert a.min == 1 and a.max == 500
        assert a.snapshot()["buckets"] == {"le_10": 2, "le_100": 1, "inf": 1}

    def test_histogram_merge_rejects_mismatched_buckets(self):
        a = Histogram("h", buckets=(10, 100))
        b = Histogram("h", buckets=(1, 2, 3))
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot())

    def test_registry_merge_equals_union_of_runs(self):
        shard_a, shard_b = MetricsRegistry(), MetricsRegistry()
        shard_a.counter("requests").inc(4, outcome="ok")
        shard_b.counter("requests").inc(6, outcome="ok")
        shard_a.histogram("latency", buckets=(10,)).observe(3)
        shard_b.histogram("latency", buckets=(10,)).observe(30)
        merged = MetricsRegistry()
        merged.merge_snapshot(shard_a.snapshot())
        merged.merge_snapshot(shard_b.snapshot())
        assert merged.counter("requests").total() == 10
        assert merged.histogram("latency", buckets=(10,)).count == 2

    def test_registry_merge_survives_json_roundtrip(self):
        source = MetricsRegistry()
        source.counter("c").inc(2, k="v")
        source.histogram("h", buckets=(5, 50)).observe(7)
        merged = MetricsRegistry()
        merged.merge_snapshot(json.loads(json.dumps(source.snapshot(), sort_keys=True)))
        assert merged.counter("c").value(k="v") == 2
        assert merged.histogram("h", buckets=(5, 50)).count == 1


class TestMergeSnapshots:
    def shard(self, value):
        obs = Observability()
        obs.tracer.set_time_source(lambda: 0.0)
        with obs.span("scenario", kind="scenario"):
            obs.event("msg")
        obs.count("requests", value)
        with obs.profile("section"):
            pass
        return snapshot(obs)

    def test_merge_keeps_shard_provenance(self):
        merged = merge_snapshots(
            [self.shard(2), self.shard(3)],
            shard_meta=[{"seed": 7}, {"seed": 9}],
        )
        assert merged["sharded"] is True
        assert [row["shard"] for row in merged["shards"]] == [0, 1]
        assert [row["seed"] for row in merged["shards"]] == [7, 9]
        assert [root["name"] for root in merged["spans"]] == ["shard:0", "shard:1"]
        assert merged["metrics"]["counters"]["requests"][0]["value"] == 5
        assert merged["profile"]["section"]["calls"] == 2

    def test_merge_span_cap_drops_whole_shards(self):
        merged = merge_snapshots([self.shard(1), self.shard(1)], max_spans=3)
        # each shard needs 3 spans (synthetic root + 2); only one fits
        assert [root["name"] for root in merged["spans"]] == ["shard:0"]
        assert merged["export_spans_dropped"] == 3
        assert merged["metrics"]["counters"]["requests"][0]["value"] == 2

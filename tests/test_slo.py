"""SLO observability: sketch accuracy, merge identity, burn rates.

The guarantees the ``repro.obs.slo`` layer makes:

* *bounded-error quantiles* — sketch p50/p90/p99 within 1% relative
  error of exact sorted percentiles on any sample distribution;
* *shard-merge identity* — splitting a sample stream across N sketches
  and merging reproduces the serial sketch's quantiles bit-for-bit;
* *calm-path freedom* — uninstrumented runs never reach the RED/SLO
  hooks (the NULL_OBSERVER fast path covers them entirely);
* *deterministic availability* — the SLO series uses virtual time and
  the seeded fault RNG, so same-seed chaos runs score identically.
"""

import random

import pytest

from repro.chaos import ChaosSpec, apply_chaos
from repro.chaos.faults import Brownout, plan_from_name
from repro.core.errors import RequestRejected
from repro.fleet import FleetDeployment
from repro.obs import Observability, snapshot
from repro.obs.export import merge_snapshots, render_red
from repro.obs.metrics import Histogram
from repro.obs.observer import Observer
from repro.obs.slo import (
    BurnWindow,
    LatencySketch,
    RedAccounting,
    SLOSpec,
    SLOTracker,
    burn_rate,
    evaluate_availability,
    evaluate_latency,
    evaluate_slo,
    fault_windows,
    merge_sketch_snapshots,
    score_fault_windows,
)
from repro.vendors import vendor

#: (name, generator) — three differently-shaped latency populations.
DISTRIBUTIONS = [
    ("uniform", lambda rng: rng.uniform(1.0, 1000.0)),
    ("lognormal", lambda rng: rng.lognormvariate(3.0, 1.5)),
    ("exponential", lambda rng: rng.expovariate(1 / 50.0)),
]


def exact_quantile(samples, q):
    """The ground truth the sketch is judged against."""
    ordered = sorted(samples)
    return ordered[int(q * (len(ordered) - 1))]


def observed_fleet(seed=3, households=6, chaos=None, seconds=60.0):
    obs = Observability(trace_messages=False)
    fleet = FleetDeployment(
        vendor("OZWI"), households=households, seed=seed, observer=obs
    )
    if chaos is not None:
        apply_chaos(fleet, chaos)
    fleet.setup_all()
    fleet.run(seconds)
    return obs, fleet


class TestSketchAccuracy:
    @pytest.mark.parametrize("name,gen", DISTRIBUTIONS)
    def test_quantiles_within_one_percent(self, name, gen):
        rng = random.Random(17)
        samples = [gen(rng) for _ in range(4000)]
        sketch = LatencySketch()
        for value in samples:
            sketch.observe(value)
        for q in (0.5, 0.9, 0.99):
            truth = exact_quantile(samples, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - truth) / truth < 0.01, (
                f"{name} q={q}: {estimate} vs exact {truth}"
            )

    def test_empty_and_zero_samples(self):
        sketch = LatencySketch()
        assert sketch.quantile(0.5) is None
        assert sketch.exemplar(0.99) is None
        sketch.observe(0.0)
        sketch.observe(-1.0)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.count == 2
        assert sketch.zero_count == 2

    def test_over_threshold_counts(self):
        sketch = LatencySketch()
        for value in (1.0, 10.0, 100.0, 1000.0):
            sketch.observe(value)
        assert sketch.over_threshold(50.0) == 2
        assert sketch.over_threshold(0.0) == 4

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            LatencySketch(alpha=0.0)
        with pytest.raises(ValueError):
            LatencySketch(alpha=1.5)


class TestSketchMergeIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_split_stream_merge_is_bit_identical(self, shards):
        rng = random.Random(29)
        samples = [rng.lognormvariate(3.0, 1.2) for _ in range(3000)]
        serial = LatencySketch()
        parts = [LatencySketch() for _ in range(shards)]
        for i, value in enumerate(samples):
            serial.observe(value, trace_id=f"t{i}")
            parts[i % shards].observe(value, trace_id=f"t{i}")
        merged = merge_sketch_snapshots(p.snapshot() for p in parts)
        # Everything a quantile reads — integer bucket counts, min/max,
        # exemplars — matches exactly; float `sum` is compared with an
        # ULP tolerance because addition order differs across shards.
        a, b = serial.snapshot(), merged.snapshot()
        sum_a, sum_b = a.pop("sum"), b.pop("sum")
        assert a == b
        assert sum_a == pytest.approx(sum_b, rel=1e-12)
        assert merged.quantiles() == serial.quantiles()
        assert merged.exemplar(0.99) == serial.exemplar(0.99)

    def test_merge_rejects_mismatched_alpha(self):
        coarse = LatencySketch(alpha=0.05)
        with pytest.raises(ValueError):
            LatencySketch(alpha=0.005).merge_snapshot(coarse.snapshot())

    def test_campaign_red_snapshots_merge(self):
        obs_a, _ = observed_fleet(seed=3)
        obs_b, _ = observed_fleet(seed=4)
        merged = RedAccounting.from_snapshot(obs_a.red.snapshot())
        merged.merge_snapshot(obs_b.red.snapshot())
        assert merged.total_requests() == (
            obs_a.red.total_requests() + obs_b.red.total_requests()
        )
        assert merged.combined_sketch().count == (
            obs_a.red.combined_sketch().count
            + obs_b.red.combined_sketch().count
        )
        # Merge order is how shard grouping varies: a-then-b and
        # b-then-a agree on everything but the ULP-level float `sum`.
        backward = RedAccounting.from_snapshot(obs_b.red.snapshot())
        backward.merge_snapshot(obs_a.red.snapshot())

        def split_sums(snap):
            return snap, {
                key: row["sketch"].pop("sum")
                for key, row in snap["series"].items()
            }

        a_then_b, a_then_b_sums = split_sums(merged.snapshot())
        b_then_a, b_then_a_sums = split_sums(backward.snapshot())
        assert a_then_b == b_then_a
        assert b_then_a_sums == pytest.approx(a_then_b_sums, rel=1e-12)


class TestRedRecording:
    def test_red_matches_audit_log(self):
        obs, fleet = observed_fleet()
        audit = fleet.cloud.audit
        assert obs.red.total_requests() == len(audit)
        assert obs.red.total_errors() == len(audit.rejected())
        # every series is scoped to the design under test
        assert {scope for scope, _ in obs.red.series()} == {"OZWI"}

    def test_pdp_timings_recorded(self):
        obs, _ = observed_fleet()
        assert obs.pdp_red.total_requests() > 0
        assert {scope for scope, _ in obs.pdp_red.series()} == {"pdp"}

    def test_rejections_are_red_errors_with_codes(self):
        obs = Observability(trace_messages=False)
        fleet = FleetDeployment(
            vendor("OZWI"), households=3, seed=5, observer=obs
        )
        fleet.setup_all()
        from repro.core.messages import UnbindMessage

        with pytest.raises(RequestRejected):
            fleet.network.request(
                "attacker:host",
                fleet.cloud.node_name,
                UnbindMessage(device_id="nope", user_token="bogus"),
            )
        errors = {
            code
            for series in obs.red.series().values()
            for code in series.errors
        }
        assert errors  # the rejection code landed as a RED error

    def test_exemplars_link_to_traces(self):
        obs, _ = observed_fleet()
        exemplar = obs.red.combined_sketch("OZWI").exemplar(0.99)
        assert exemplar is not None and exemplar["trace"]

    def test_render_red_mentions_every_scope(self):
        obs, _ = observed_fleet()
        text = render_red(obs)
        assert "OZWI" in text and "pdp" in text and "p99" in text


class TestCalmPathFreedom:
    """The record points sit behind the null-observer flag.

    With every per-request observer hook (and the wall clocks the record
    and the PDP read) patched to raise, a calm fleet runs end to end; an
    instrumented control with the hooks restored must actually record
    RED and PDP series.  What the calm path costs in time is measured by
    ``benchmarks/perf`` (calm under ``NULL_OBSERVER`` on ``probe-sweep``
    and ``rebind-storm``), not here.
    """

    def test_null_observer_never_reaches_hooks(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("SLO hook fired on the calm path")

        with monkeypatch.context() as patched:
            for hook in ("on_request", "on_audit", "on_shadow_transition"):
                patched.setattr(Observer, hook, boom)
            patched.setattr("repro.cloud.service.perf_counter_ns", boom)
            patched.setattr("repro.cloud.pdp.engine.perf_counter_ns", boom)
            fleet = FleetDeployment(vendor("OZWI"), households=3, seed=3)
            fleet.setup_all()
            fleet.run(30.0)
            assert len(fleet.cloud.audit) > 0

        obs, control = observed_fleet(households=3, seconds=30.0)
        assert obs.red.total_requests() == len(control.cloud.audit) > 0
        assert obs.pdp_red.total_requests() > 0


class TestSLOTracker:
    def test_merge_is_exact(self):
        serial = SLOTracker()
        parts = [SLOTracker(), SLOTracker()]
        for t in range(100):
            serial.record_request(float(t))
            parts[t % 2].record_request(float(t))
            if 30 <= t < 40:
                serial.record_bad(float(t), "drop")
                parts[t % 2].record_bad(float(t), "drop")
        merged = SLOTracker.from_snapshot(parts[0].snapshot())
        merged.merge_snapshot(parts[1].snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_window_counts(self):
        tracker = SLOTracker()
        for t in range(10):
            tracker.record_request(float(t))
        tracker.record_bad(5.0, "timeout")
        assert tracker.window_counts(0.0, 10.0) == (11, 1)
        assert tracker.window_counts(5.0, 6.0) == (2, 1)
        assert tracker.window_counts(6.0, 10.0) == (4, 0)

    def test_merge_rejects_mismatched_bins(self):
        with pytest.raises(ValueError):
            SLOTracker(bin_seconds=1.0).merge_snapshot(
                SLOTracker(bin_seconds=5.0).snapshot()
            )


class TestBurnRates:
    def outage_tracker(self):
        """100s of steady traffic; everything fails during [30, 40)."""
        tracker = SLOTracker()
        for t in range(100):
            if 30 <= t < 40:
                tracker.record_bad(float(t), "brownout", n=10)
            else:
                tracker.record_request(float(t), n=10)
        return tracker

    def test_burn_rate_math(self):
        tracker = self.outage_tracker()
        # inside the outage the bad fraction is 1.0 => burn = 1/budget
        assert burn_rate(tracker, 30.0, 40.0, 0.999) == pytest.approx(1000.0)
        assert burn_rate(tracker, 0.0, 30.0, 0.999) == 0.0
        assert burn_rate(tracker, 200.0, 210.0, 0.999) is None

    def test_outage_alerts_and_misses(self):
        result = evaluate_availability(self.outage_tracker(), SLOSpec())
        assert not result["met"]
        assert result["bad"] == 100
        assert result["bad_by_cause"] == {"brownout": 100}
        for window in result["windows"]:
            assert window["alert_at"] is not None
            assert window["max_long_burn"] >= window["factor"]

    def test_calm_run_is_quiet(self):
        tracker = SLOTracker()
        for t in range(100):
            tracker.record_request(float(t), n=10)
        result = evaluate_availability(tracker, SLOSpec())
        assert result["met"] and result["achieved"] == 1.0
        assert all(w["alert_at"] is None for w in result["windows"])

    def test_burn_window_scaling_keeps_ratio(self):
        window = BurnWindow(3600.0, 300.0, 14.4)
        scaled = window.scaled(120.0)
        assert scaled.long_seconds == 120.0
        assert scaled.short_seconds == pytest.approx(10.0)
        assert window.scaled(7200.0) is window

    def test_fault_window_verdicts(self):
        tracker = self.outage_tracker()
        plan = type("Plan", (), {
            "brownouts": [Brownout(start=30.0, end=40.0)],
        })()
        verdicts = score_fault_windows(tracker, SLOSpec(), plan)
        assert [v["verdict"] for v in verdicts] == ["breach"]
        quiet = type("Plan", (), {
            "brownouts": [Brownout(start=80.0, end=90.0)],
        })()
        tracker_ok = SLOTracker()
        for t in range(100):
            tracker_ok.record_request(float(t), n=10)
        verdicts = score_fault_windows(tracker_ok, SLOSpec(), quiet)
        assert [v["verdict"] for v in verdicts] == ["unaffected"]

    def test_fault_windows_cover_preset_plans(self):
        plan = plan_from_name("partition-storm")
        kinds = {w["kind"] for w in fault_windows(plan)}
        assert "partition" in kinds
        plan = plan_from_name("cloud-restart")
        kinds = {w["kind"] for w in fault_windows(plan)}
        assert "restart" in kinds and "brownout" in kinds


class TestChaosSLODeterminism:
    def chaos_obs(self, seed=11):
        obs, _ = observed_fleet(
            seed=seed,
            chaos=ChaosSpec(plan="cloud-brownout", intensity=1.0),
            seconds=90.0,
        )
        return obs

    def test_same_seed_same_slo_series(self):
        a, b = self.chaos_obs(), self.chaos_obs()
        assert a.slo.snapshot() == b.slo.snapshot()
        assert a.slo.bad > 0

    def test_brownout_scores_as_breach(self):
        obs = self.chaos_obs()
        plan = plan_from_name("cloud-brownout", 1.0)
        report = evaluate_slo(
            obs.slo, SLOSpec(),
            sketch=obs.red.combined_sketch("OZWI"), plan=plan,
        )
        assert not report.availability["met"]
        verdicts = {v["kind"]: v["verdict"] for v in report.faults}
        assert verdicts["brownout"] in ("breach", "degraded")
        text = report.render()
        assert "MISSED" in text and "fault brownout" in text


class TestSnapshotWiring:
    def test_slo_always_red_only_with_wall(self):
        obs, _ = observed_fleet()
        lean = snapshot(obs, include_wall=False)
        full = snapshot(obs, include_wall=True)
        assert "slo" in lean and "red" not in lean
        assert full["red"]["requests"]["series"]
        assert full["slo"]["total"] == obs.slo.total

    def test_merge_snapshots_folds_slo_and_red(self):
        obs_a, _ = observed_fleet(seed=3)
        obs_b, _ = observed_fleet(seed=4)
        merged = merge_snapshots([snapshot(obs_a), snapshot(obs_b)])
        assert merged["slo"]["total"] == obs_a.slo.total + obs_b.slo.total
        merged_red = RedAccounting.from_snapshot(merged["red"]["requests"])
        assert merged_red.total_requests() == (
            obs_a.red.total_requests() + obs_b.red.total_requests()
        )

    def test_latency_evaluation(self):
        sketch = LatencySketch()
        for value in (100.0,) * 98 + (5000.0, 6000.0):
            sketch.observe(value, trace_id="slow")
        result = evaluate_latency(sketch, SLOSpec(latency_us=1000.0))
        assert result["over_threshold"] == 2
        assert result["compliance"] == pytest.approx(0.98)
        assert result["exemplar_p99"]["trace"] == "slow"


class TestHistogramQuantiles:
    def test_interpolation_and_clamping(self):
        hist = Histogram("h", buckets=(10, 20, 30))
        for value in (12.0, 14.0, 16.0, 18.0):
            hist.observe(value)
        p50 = hist.quantile(0.5)
        assert 12.0 <= p50 <= 18.0  # clamped to observed range
        assert hist.quantile(0.0) >= hist.min
        assert hist.quantile(1.0) <= hist.max

    def test_empty_and_overflow(self):
        hist = Histogram("h", buckets=(10,))
        assert hist.quantile(0.5) is None
        hist.observe(100.0)
        assert hist.quantile(0.99) == 100.0

    def test_render_includes_percentiles(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.histogram("latency").observe(5.0)
        assert "p50=" in registry.render() and "p99=" in registry.render()

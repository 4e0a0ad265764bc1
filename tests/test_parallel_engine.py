"""Tests for the sharded parallel campaign engine (repro.parallel)."""

import gc
import types

import pytest

from repro.attacks.campaign import (
    CampaignReport,
    campaign_binding_dos,
    campaign_mass_unbind,
)
from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.core.errors import ConfigurationError
from repro.fleet import FleetDeployment
from repro.obs.runtime import Observability
from repro.parallel import (
    ShardSpec,
    build_shard_specs,
    derive_shard_seed,
    partition,
    run_campaign,
    run_shard,
)
from repro.vendors import vendor

#: An Orvibo-style worst case: unchecked Type-1 unbind over sequential serials.
UNCHECKED_UNBIND = VendorDesign(
    name="Orvibo-like", device_type="smart-plug",
    device_auth=DeviceAuthMode.DEV_TOKEN,
    unbind_checks_bound_user=False,
    id_scheme="serial-number", id_serial_digits=6,
)


class TestShardArithmetic:
    def test_shard_zero_keeps_the_base_seed(self):
        assert derive_shard_seed(42, 0) == 42

    def test_other_shards_get_distinct_stable_seeds(self):
        seeds = [derive_shard_seed(42, i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [derive_shard_seed(42, i) for i in range(8)]

    def test_partition_sums_to_total(self):
        assert partition(400, 4) == [100, 100, 100, 100]
        assert partition(10, 3) == [4, 3, 3]
        assert partition(2, 5) == [1, 1, 0, 0, 0]
        for total, shards in ((0, 1), (17, 4), (256, 8)):
            assert sum(partition(total, shards)) == total

    def test_partition_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            partition(4, 0)


class TestReportMerge:
    def report(self, **overrides):
        base = dict(
            campaign="binding-dos", vendor="OZWI", households=3,
            ids_probed=16, ids_hit=3, victims_denied=3,
            modelled_seconds=0.5, details=["userX: setup DENIED"],
        )
        base.update(overrides)
        return CampaignReport(**base)

    def test_merge_single_report_is_unchanged(self):
        original = self.report()
        merged = CampaignReport.merge([original])
        assert merged == original
        assert merged.details == ["userX: setup DENIED"]  # no shard prefix

    def test_merge_sums_counts_and_prefixes_details(self):
        merged = CampaignReport.merge([self.report(), self.report(households=5)])
        assert merged.households == 8
        assert merged.ids_probed == 32
        assert merged.ids_hit == 6
        assert merged.victims_denied == 6
        assert merged.modelled_seconds == pytest.approx(1.0)
        assert merged.details[0].startswith("[shard 0] ")
        assert merged.details[1].startswith("[shard 1] ")

    def test_merge_rejects_empty_and_mismatched(self):
        with pytest.raises(ConfigurationError):
            CampaignReport.merge([])
        with pytest.raises(ConfigurationError):
            CampaignReport.merge([self.report(), self.report(vendor="D-LINK")])


class TestSerialEquivalence:
    def serial_binding_dos(self, households=12, probes=64, seed=7):
        obs = Observability()
        fleet = FleetDeployment(
            vendor("OZWI"), households=households, seed=seed, observer=obs
        )
        report = campaign_binding_dos(fleet, max_probes=probes)
        # the engine publishes state-layer gauges at shard end; do the
        # same here so the metric snapshots stay comparable
        fleet.cloud.emit_state_gauges()
        return report, obs

    def test_workers_1_bit_matches_serial_report(self):
        serial_report, serial_obs = self.serial_binding_dos()
        result = run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=12, max_probes=64, workers=1, seed=7,
        )
        assert result.report == serial_report

    def test_workers_1_matches_serial_metric_counters(self):
        _, serial_obs = self.serial_binding_dos()
        result = run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=12, max_probes=64, workers=1, seed=7,
        )
        serial_counters = serial_obs.metrics.snapshot()["counters"]
        assert result.metrics.snapshot()["counters"] == serial_counters

    def test_workers_4_produces_same_merged_totals(self):
        serial_report, serial_obs = self.serial_binding_dos()
        result = run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=12, max_probes=64, workers=4, seed=7,
        )
        merged = result.report
        assert merged.households == serial_report.households
        assert merged.ids_probed == serial_report.ids_probed
        assert merged.ids_hit == serial_report.ids_hit
        assert merged.victims_denied == serial_report.victims_denied
        assert merged.modelled_seconds == pytest.approx(
            serial_report.modelled_seconds
        )
        for name in ("campaign.probes", "campaign.hits", "campaign.denied"):
            assert result.metrics.counter(name).total() == pytest.approx(
                serial_obs.metrics.counter(name).total()
            ), name

    def test_sharded_runs_are_reproducible(self):
        first = run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=12, max_probes=64, workers=4, seed=7,
        )
        second = run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=12, max_probes=64, workers=4, seed=7,
        )
        assert first.report == second.report
        assert first.metrics.snapshot() == second.metrics.snapshot()
        assert [r.seed for r in first.shard_results] == [
            r.seed for r in second.shard_results
        ]

    def test_mass_unbind_workers_1_matches_serial(self):
        fleet = FleetDeployment(UNCHECKED_UNBIND, households=6, seed=3)
        assert fleet.setup_all() == 6
        fleet.run(12.0)
        serial = campaign_mass_unbind(fleet, max_probes=64)
        result = run_campaign(
            UNCHECKED_UNBIND, campaign="mass-unbind",
            households=6, max_probes=64, workers=1, seed=3,
        )
        assert result.report == serial

    def test_mass_unbind_workers_2_same_merged_totals(self):
        fleet = FleetDeployment(UNCHECKED_UNBIND, households=6, seed=3)
        fleet.setup_all()
        fleet.run(12.0)
        serial = campaign_mass_unbind(fleet, max_probes=64)
        result = run_campaign(
            UNCHECKED_UNBIND, campaign="mass-unbind",
            households=6, max_probes=64, workers=2, seed=3,
        )
        assert result.report.households == serial.households
        assert result.report.ids_probed == serial.ids_probed
        assert result.report.ids_hit == serial.ids_hit
        assert result.report.victims_denied == serial.victims_denied


class TestConsistencyInvariant:
    def test_merged_metrics_equal_sum_of_shard_audits(self):
        result = run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=8, max_probes=32, workers=4, seed=5,
        )
        assert all(r.matches_audit for r in result.shard_results)
        merged_total = result.metrics.counter("cloud.audit.entries").total()
        assert merged_total == result.audit_entries_total
        assert result.consistent

    def test_snapshot_carries_shard_provenance(self):
        result = run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=4, max_probes=16, workers=2, seed=5,
        )
        snap = result.snapshot
        assert snap["sharded"] is True
        assert [row["shard"] for row in snap["shards"]] == [0, 1]
        assert snap["shards"][0]["seed"] == 5
        assert [root["name"] for root in snap["spans"]] == ["shard:0", "shard:1"]

    def test_render_mentions_shards_and_consistency(self):
        result = run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=4, max_probes=16, workers=2, seed=5,
        )
        text = result.render()
        assert "shard 0" in text and "shard 1" in text
        assert "consistent" in text


def tracked_reachable(root):
    """How many GC-tracked objects are reachable from *root* (classes aside)."""
    seen, stack, count = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            count += 1
            stack.extend(gc.get_referents(obj))
    return count


class TestShardFootprint:
    def pooled(self, probes):
        return run_campaign(
            vendor("OZWI"), campaign="binding-dos",
            households=4, max_probes=probes, workers=2, seed=3, detect=True,
        )

    def test_pooled_shard_keeps_its_forest_as_one_untracked_object(self):
        small, large = self.pooled(16), self.pooled(160)
        assert large.audit_entries_total > 4 * small.audit_entries_total
        for shard in small.shard_results + large.shard_results:
            assert isinstance(shard.observations, bytes)
            assert not gc.is_tracked(shard.observations)
        assert [tracked_reachable(r) for r in large.shard_results] == [
            tracked_reachable(r) for r in small.shard_results
        ]

    def test_snapshot_reads_are_stable_and_leave_the_report_alone(self):
        result = self.pooled(16)
        before = result.to_dict()
        first = result.snapshot
        assert result.snapshot == first
        assert result.to_dict() == before
        shard = result.shard_results[0]
        assert shard.obs_snapshot == shard.obs_snapshot
        assert first["span_count"] == sum(
            r.obs_snapshot["span_count"] for r in result.shard_results
        )


class TestEngineValidation:
    def test_rejects_unknown_campaign(self):
        with pytest.raises(ConfigurationError):
            run_campaign(vendor("OZWI"), campaign="nonsense")

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            run_campaign(vendor("OZWI"), workers=0)

    def test_rejects_clone_build_for_binding_dos(self):
        with pytest.raises(ConfigurationError):
            run_campaign(vendor("OZWI"), campaign="binding-dos", build="clone")

    def test_run_shard_rejects_unknown_campaign(self):
        spec = ShardSpec(
            shard_index=0, shards=1, design=vendor("OZWI"),
            campaign="nonsense", households=1, max_probes=1, seed=1,
        )
        with pytest.raises(ConfigurationError):
            run_shard(spec)

    def test_shards_never_exceed_households(self):
        specs = build_shard_specs(vendor("OZWI"), households=2, shards=8)
        assert len(specs) == 2
        assert all(spec.households == 1 for spec in specs)

    def test_shard_specs_are_picklable(self):
        import pickle

        specs = build_shard_specs(vendor("OZWI"), households=4, shards=2)
        assert pickle.loads(pickle.dumps(specs)) == specs


class TestCloneBuiltMassUnbind:
    def test_clone_built_fleet_is_equally_vulnerable(self):
        replay = run_campaign(
            UNCHECKED_UNBIND, campaign="mass-unbind",
            households=6, max_probes=64, workers=1, seed=3, build="replay",
        )
        clone = run_campaign(
            UNCHECKED_UNBIND, campaign="mass-unbind",
            households=6, max_probes=64, workers=1, seed=3, build="clone",
        )
        assert clone.report.ids_hit == replay.report.ids_hit == 6
        assert clone.report.victims_denied == replay.report.victims_denied == 6
        assert clone.consistent

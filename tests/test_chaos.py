"""The chaos subsystem: fault plans, injection, resilience, campaigns."""

import dataclasses
import gc
import json
import types

import pytest

from repro.chaos import (
    Brownout,
    ChaosSpec,
    CircuitBreaker,
    CircuitOpen,
    CloudRestart,
    FaultInjector,
    FaultPlan,
    LinkFault,
    NO_RETRY,
    Partition,
    RetryPolicy,
    apply_chaos,
    binding_liveness,
    plan_from_name,
    plan_names,
)
from repro.chaos.campaign import merge_liveness
from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.core.errors import (
    ConfigurationError,
    NetworkError,
    RequestRejected,
    RequestTimeout,
)
from repro.core.messages import Response, StatusMessage
from repro.fleet import FleetDeployment
from repro.net.network import Network
from repro.sim.environment import Environment
from repro.vendors import vendor


def make_design(**overrides):
    defaults = dict(
        name="T", device_type="smart-plug",
        device_auth=DeviceAuthMode.DEV_ID, id_scheme="serial-number",
    )
    defaults.update(overrides)
    return VendorDesign(**defaults)


class TestFaultPlans:
    def test_catalog_has_the_documented_presets(self):
        names = plan_names()
        for expected in (
            "lossy-lan", "flaky-wan", "jittery-backhaul",
            "partition-storm", "cloud-brownout", "cloud-restart",
        ):
            assert expected in names

    def test_unknown_plan_lists_catalog(self):
        with pytest.raises(ConfigurationError) as excinfo:
            plan_from_name("nope")
        assert "lossy-lan" in str(excinfo.value)

    def test_intensity_scales_and_clamps(self):
        plan = FaultPlan(
            name="x", link_faults=(LinkFault(loss=0.4, latency=0.1),),
            brownouts=(Brownout(start=10.0, end=20.0),),
            restarts=(CloudRestart(at=5.0),),
        )
        doubled = plan.scaled(2.0)
        assert doubled.link_faults[0].loss == 0.8
        assert doubled.link_faults[0].latency == pytest.approx(0.2)
        assert doubled.brownouts[0].end == 30.0  # window stretches
        tripled = plan.scaled(10.0)
        assert tripled.link_faults[0].loss == 1.0  # clamped
        # partition windows stretch or shrink from their start
        storm = plan_from_name("partition-storm")
        for intensity in (0.5, 2.0):
            scaled = storm.scaled(intensity).partitions
            assert [(p.start, p.end) for p in scaled] == [
                (p.start, p.start + (p.end - p.start) * intensity)
                for p in storm.partitions
            ]
        forever = Partition(groups=("device",), start=5.0, end=float("inf"))
        assert forever.scaled(0.5) is forever

    def test_intensity_zero_is_inert(self):
        plan = plan_from_name("cloud-restart", intensity=0.0)
        assert plan.brownouts == ()
        assert plan.restarts == ()

    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_from_name("lossy-lan", intensity=-1.0)

    def test_partition_severs_only_across_the_island_edge(self):
        part = Partition(groups=("device", "app"), start=0.0, end=10.0)
        assert part.severs("device", "cloud")
        assert part.severs("cloud", "app")
        assert not part.severs("device", "app")  # both inside
        assert not part.severs("cloud", "attacker")  # both outside

    def test_describe_mentions_every_rule_kind(self):
        text = plan_from_name("cloud-restart").describe()
        assert "brownout" in text
        assert "crash" in text


class TestFaultInjector:
    def test_same_seed_same_fault_pattern(self):
        def pattern(seed):
            env = Environment(seed=seed)
            injector = FaultInjector(env, plan_from_name("lossy-lan"))
            outcomes = []
            for _ in range(50):
                try:
                    injector.on_request("device:0", "cloud", env.now)
                    outcomes.append("ok")
                except NetworkError:
                    outcomes.append("drop")
            return outcomes

        assert pattern(5) == pattern(5)
        assert pattern(5) != pattern(6)  # the knob actually matters

    def test_chaos_rng_is_forked_not_shared(self):
        """Installing chaos must not perturb the world's main draws."""
        env = Environment(seed=9)
        FaultInjector(env, plan_from_name("lossy-lan"))
        before = env.rng.uniform(0.0, 1.0)
        env2 = Environment(seed=9)
        assert env2.rng.uniform(0.0, 1.0) == before

    def test_partition_window_opens_and_closes(self):
        env = Environment(seed=1)
        injector = FaultInjector(env, plan_from_name("partition-storm"))
        injector.on_request("device:0", "cloud", 5.0)  # before the window
        with pytest.raises(NetworkError):
            injector.on_request("device:0", "cloud", 25.0)  # inside
        injector.on_request("device:0", "cloud", 60.0)  # between windows
        with pytest.raises(NetworkError):
            injector.on_request("app:0", "cloud", 90.0)  # second window

    def test_brownout_blocks_only_cloudward_traffic(self):
        env = Environment(seed=1)
        injector = FaultInjector(env, plan_from_name("cloud-brownout"))
        with pytest.raises(NetworkError):
            injector.on_request("device:0", "cloud", 40.0)
        # device-to-device (local) traffic is unaffected mid-brownout
        injector.on_request("app:0", "device:0", 40.0)

    def test_latency_above_timeout_raises_request_timeout(self):
        env = Environment(seed=1)
        plan = FaultPlan(
            name="slow", link_faults=(LinkFault(dst="cloud", latency=2.0),)
        )
        injector = FaultInjector(env, plan)
        with pytest.raises(RequestTimeout):
            injector.on_request("device:0", "cloud", 0.0, timeout=1.0)
        # no timeout given: latency is recorded but delivery proceeds
        injector.on_request("device:0", "cloud", 0.0)
        assert injector.stats["timeouts"] == 1
        assert injector.stats["delayed"] == 2


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_rng_state(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.25)
        first = policy.schedule(Environment(seed=3).rng.fork("r"))
        second = policy.schedule(Environment(seed=3).rng.fork("r"))
        assert first == second

    def test_delays_cap_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=10.0,
            max_delay=5.0, jitter=0.0,
        )
        rng = Environment(seed=1).rng
        assert policy.schedule(rng) == [1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]

    def test_no_retry_behaves_like_one_attempt(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.schedule(Environment(seed=1).rng) == []


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers_half_open(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        for _ in range(3):
            assert breaker.allow(0.0)
            breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(5.0)  # still cooling down
        assert breaker.allow(10.0)  # half-open probe let through
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success(10.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(10.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(15.0)
        assert breaker.opened_total == 2


class TestBroadcastReorder:
    """``jittery-backhaul`` shuffles app broadcasts; only a LAN with two
    or more receivers besides the app can tell."""

    def lan(self, receivers):
        env = Environment(seed=5)
        network = Network(env)
        network.create_lan("lan", "ssid", "pw", "203.0.113.7")
        for name in ["app:0"] + [f"device:{i}" for i in range(receivers)]:
            network.add_node(name, handler=lambda packet: Response())
            network.join_lan(name, "lan", "pw")
        injector = FaultInjector(env, plan_from_name("jittery-backhaul"))
        network.add_fault_filter("chaos", injector)
        return network, injector

    def orders(self, network):
        return {
            tuple(
                exchange.request.dst
                for exchange in network.broadcast("app:0", StatusMessage(device_id="d"))
            )
            for _ in range(20)
        }

    def test_several_receivers_hear_a_reordered_broadcast(self):
        network, injector = self.lan(receivers=3)
        orders = self.orders(network)
        assert injector.stats["reordered"] > 0
        assert len(orders) > 1
        assert {tuple(sorted(order)) for order in orders} == {
            ("device:0", "device:1", "device:2")
        }

    def test_one_receiver_makes_the_reorder_a_no_op(self):
        network, injector = self.lan(receivers=1)
        assert self.orders(network) == {("device:0",)}
        assert injector.stats["reordered"] > 0  # the rule fired all the same


class TestResilientClient:
    def _world(self, loss, seed=3):
        design = make_design()
        fleet = FleetDeployment(design, households=1, seed=seed)
        assert fleet.setup_all() == 1
        if loss:
            plan = FaultPlan(name="uniform-loss", link_faults=(LinkFault(loss=loss),))
            fleet.network.add_fault_filter("loss", FaultInjector(fleet.env, plan))
        return fleet

    def test_retries_recover_from_moderate_loss(self):
        fleet = self._world(loss=0.5)
        app = fleet.households[0].app
        app.enable_resilience(RetryPolicy(max_attempts=6, jitter=0.25))
        device_id = fleet.households[0].device.device_id
        response = app.query(device_id)
        assert response.ok
        assert app._client.stats["attempts"] >= 1
        assert app._client.stats["giveups"] == 0

    def test_rejections_do_not_consume_retries(self):
        fleet = self._world(loss=0.0)
        app = fleet.households[0].app
        app.enable_resilience()
        with pytest.raises(RequestRejected):
            app.query("does-not-exist")
        assert app._client.stats["attempts"] == 1  # no retry on rejection

    def test_open_breaker_short_circuits(self):
        fleet = self._world(loss=1.0)
        app = fleet.households[0].app
        app.enable_resilience(
            RetryPolicy(max_attempts=2, jitter=0.0),
            breaker=CircuitBreaker(failure_threshold=2, cooldown=1000.0),
        )
        device_id = fleet.households[0].device.device_id
        with pytest.raises(NetworkError):
            app.query(device_id)  # trips the breaker
        with pytest.raises(CircuitOpen):
            app.query(device_id)  # short-circuited, no network attempts
        assert app._client.stats["short_circuits"] == 1

    def test_retried_drops_leave_no_cyclic_garbage(self):
        """A retried or given-up delivery leaves no reference cycle behind.

        Only accepted traffic runs here (OZWI heartbeats): a policy
        rejection still leaves a traceback cycle of its own.
        """
        fleet = FleetDeployment(vendor("OZWI"), households=16, seed=1)
        controller = apply_chaos(fleet, ChaosSpec(plan="flaky-wan"))
        fleet.setup_all()
        audited = len(fleet.cloud.audit)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fleet.run(300.0)
            gc.collect()
            garbage = [type(obj) for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert controller.injector.summary()["dropped"] > 0
        assert controller.resilience_stats()["retries"] > 0
        assert len(fleet.cloud.audit) > audited
        assert not fleet.cloud.audit.rejected()
        assert not [kind for kind in garbage if issubclass(kind, NetworkError)]
        assert not [kind for kind in garbage if kind is types.FrameType]


class TestChaosCampaigns:
    def test_apply_chaos_installs_filter_and_clients(self):
        fleet = FleetDeployment(make_design(), households=2, seed=3)
        controller = apply_chaos(fleet, ChaosSpec(plan="lossy-lan"))
        assert fleet.network.fault_filter("chaos") is controller.injector
        for household in fleet.households:
            assert household.device._client is not None
            assert household.app._client is not None

    def test_no_resilience_leaves_clients_bare(self):
        fleet = FleetDeployment(make_design(), households=1, seed=3)
        apply_chaos(fleet, ChaosSpec(plan="lossy-lan", resilience=False))
        assert fleet.households[0].device._client is None

    def test_brownout_degrades_then_recovers(self):
        fleet = FleetDeployment(make_design(), households=2, seed=3)
        apply_chaos(fleet, ChaosSpec(plan="cloud-brownout"))
        assert fleet.setup_all() == 2
        fleet.run(60.0)  # deep inside the t=[30,75) brownout
        during = binding_liveness(fleet)
        assert during["online_fraction"] == 0.0  # keepalives timed out
        assert during["bound_fraction"] == 1.0  # but never unbound
        fleet.run(60.0)  # the brownout lifts at t=75
        after = binding_liveness(fleet)
        assert after["online_fraction"] == 1.0

    def test_zero_intensity_campaign_is_the_calm_point(self):
        from repro.parallel import run_campaign

        # Type-1 unbind without the bound-user check: mass-unbind lands.
        design = make_design(
            device_auth=DeviceAuthMode.DEV_TOKEN, unbind_checks_bound_user=False,
        )
        result = run_campaign(
            design, campaign="mass-unbind", households=4, max_probes=12,
            workers=1, seed=17, trace_messages=False,
            chaos=ChaosSpec(plan="flaky-wan", intensity=0.0),
        )
        injector = result.shard_results[0].chaos["injector"]
        assert injector["dropped"] == injector["delayed"] == 0
        assert result.report.denial_rate == 1.0

    def test_resilience_keeps_the_fleet_live_under_flaky_wan(self, capsys):
        from repro.cli import main

        online = {}
        for clients, flags in (("resilient", []), ("bare", ["--no-resilience"])):
            assert main(["chaos", "run", "flaky-wan", "--intensity", "8",
                         "--households", "8", "--seconds", "120",
                         "--format", "json"] + flags) == 0
            liveness = json.loads(capsys.readouterr().out)["liveness"]
            online[clients] = liveness["online_fraction"]
        # ~40% loss on the cloud path: retries keep every device online,
        # bare clients lose most of the fleet
        assert online == {"resilient": 1.0, "bare": 0.375}

    def test_cloud_restart_recovers_bindings_via_journal(self):
        fleet = FleetDeployment(make_design(), households=2, seed=3)
        controller = apply_chaos(fleet, ChaosSpec(plan="cloud-restart"))
        assert fleet.setup_all() == 2
        old_cloud = fleet.cloud
        fleet.run(120.0)  # crash at t=60, then recovery + heartbeats
        assert len(controller.recoveries) == 1
        assert fleet.cloud is not old_cloud
        assert controller.recoveries[0].entries_applied > 0
        liveness = binding_liveness(fleet)
        assert liveness["bound_fraction"] == 1.0  # bindings survived
        assert liveness["online_fraction"] == 1.0  # devices re-registered

    def test_duplicate_delivery_lands_in_the_audit_log(self):
        fleet = FleetDeployment(make_design(), households=1, seed=3)
        plan = FaultPlan(
            name="dup-everything",
            link_faults=(LinkFault(dst="cloud", duplicate=1.0),),
        )
        injector = FaultInjector(fleet.env, plan)
        fleet.network.add_fault_filter("chaos", injector)
        before = len(fleet.cloud.audit)
        fleet.households[0].app.login()
        assert injector.stats["duplicates"] == 1
        # both deliveries hit the cloud handler and its audit log
        assert len(fleet.cloud.audit) == before + 2

    def test_merge_liveness_sums_counts(self):
        merged = merge_liveness([
            {"households": 2, "bound": 2, "online": 1},
            {"households": 3, "bound": 1, "online": 3},
        ])
        assert merged["households"] == 5
        assert merged["bound_fraction"] == pytest.approx(3 / 5)
        assert merged["online_fraction"] == pytest.approx(4 / 5)


class TestShardedChaosDeterminism:
    def test_same_seed_bit_identical_across_worker_counts(self):
        """The acceptance bar: a chaos campaign with fixed shards merges
        to byte-identical reports at --workers 1 and --workers 4."""
        from repro.parallel import run_campaign

        def run(workers):
            result = run_campaign(
                make_design(),
                campaign="binding-dos",
                households=8,
                max_probes=16,
                workers=workers,
                shards=4,
                seed=11,
                trace_messages=False,
                chaos=ChaosSpec(plan="lossy-lan", intensity=1.0),
            )
            return (
                dataclasses.asdict(result.report),
                [shard.chaos for shard in result.shard_results],
                result.liveness,
            )

        assert run(1) == run(4)

    def test_calm_and_chaos_runs_share_world_construction(self):
        """Chaos RNG isolation: device IDs drawn identically either way."""
        calm = FleetDeployment(make_design(), households=3, seed=5)
        chaotic = FleetDeployment(make_design(), households=3, seed=5)
        apply_chaos(chaotic, ChaosSpec(plan="lossy-lan"))
        assert [h.device.device_id for h in calm.households] == [
            h.device.device_id for h in chaotic.households
        ]

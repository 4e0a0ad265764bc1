"""Failure injection: flaky connectivity and the binding's resilience.

Loss is a chaos :class:`~repro.chaos.LinkFault` plan installed through a
:class:`~repro.chaos.FaultInjector`, the same path chaos campaigns use;
a loss spell that ends is a fault window ``[start, end)``.
"""

import math

import pytest

from repro.chaos import FaultInjector, FaultPlan, LinkFault
from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.core.errors import ConfigurationError, NetworkError
from repro.scenario import Deployment


def make_world():
    design = VendorDesign(
        name="T", device_type="smart-plug",
        device_auth=DeviceAuthMode.DEV_ID, id_scheme="serial-number",
    )
    return Deployment(design, seed=77)


def install_loss(world, probability, seconds=math.inf):
    """Drop every request with *probability* for the next *seconds*."""
    now = world.env.now
    plan = FaultPlan(
        name="uniform-loss",
        link_faults=(LinkFault(loss=probability, start=now, end=now + seconds),),
    )
    injector = FaultInjector(world.env, plan)
    world.network.add_fault_filter("loss", injector)
    return injector


class TestLossKnob:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkFault(loss=1.5)
        with pytest.raises(ConfigurationError):
            LinkFault(loss=-0.1)

    def test_total_loss_blocks_everything(self):
        world = make_world()
        install_loss(world, 1.0)
        with pytest.raises(NetworkError):
            world.victim.app.login()

    def test_zero_loss_is_default(self):
        world = make_world()
        assert world.victim_full_setup()


class TestResilience:
    def test_heartbeats_ride_through_moderate_loss(self):
        """Individual heartbeats drop, but the binding and the device's
        online state self-heal: the next surviving heartbeat restores
        everything (Figure 2's timeout arcs are reversible)."""
        world = make_world()
        assert world.victim_full_setup()
        install_loss(world, 0.3, seconds=300.0)
        world.run(300.0)  # 60 heartbeat attempts at 30% loss
        world.run_heartbeats(2)
        assert world.shadow_state() == "control"
        assert world.bound_user() == world.victim.user_id
        assert world.victim_can_control()

    def test_binding_survives_even_if_device_flaps_offline(self):
        world = make_world()
        assert world.victim_full_setup()
        install_loss(world, 0.95, seconds=120.0)  # near-total outage
        world.run(120.0)
        # the shadow may have gone offline, but never unbound
        assert world.bound_user() == world.victim.user_id
        world.run_heartbeats(2)
        assert world.shadow_state() == "control"

    def test_loss_is_deterministic_per_seed(self):
        results = []
        for _ in range(2):
            world = make_world()
            assert world.victim_full_setup()
            install_loss(world, 0.5)
            world.run(100.0)
            results.append(world.victim.device.last_error)
        assert results[0] == results[1]


class TestLossSeam:
    """Loss is a fault filter over the chaos seam."""

    def test_boundary_probabilities_accepted(self):
        world = make_world()
        LinkFault(loss=1.0)  # exact upper bound
        install_loss(world, 0.0)  # exact lower bound
        assert world.victim_full_setup()

    def test_ended_loss_window_leaves_the_world_calm(self):
        calm = make_world()
        assert calm.victim_full_setup()
        world = make_world()
        injector = install_loss(world, 0.4, seconds=0.0)
        assert world.victim_full_setup()
        assert injector.summary()["requests"] > 0
        assert injector.summary()["dropped"] == 0
        assert world.bound_user() == calm.bound_user()
        assert list(world.cloud.audit.entries) == list(calm.cloud.audit.entries)

    def test_loss_deterministic_under_shard_seeds(self):
        """Shard-derived seeds reproduce their own loss pattern exactly."""
        from repro.parallel.shards import derive_shard_seed

        def run_once(seed):
            design = VendorDesign(
                name="T", device_type="smart-plug",
                device_auth=DeviceAuthMode.DEV_ID, id_scheme="serial-number",
            )
            world = Deployment(design, seed=seed)
            assert world.victim_full_setup()
            injector = install_loss(world, 0.5)
            world.run(100.0)
            return (world.victim.device.last_error, injector.summary())

        for shard in range(3):
            seed = derive_shard_seed(7, shard)
            assert run_once(seed) == run_once(seed)
        # shard 0 must keep the base seed (serial path bit-match)
        assert derive_shard_seed(7, 0) == 7

    def test_backoff_schedule_identical_across_same_seed_reruns(self):
        from repro.chaos import RetryPolicy
        from repro.sim.environment import Environment

        policy = RetryPolicy(max_attempts=5, base_delay=0.5, jitter=0.25)

        def schedule():
            env = Environment(seed=13)
            return policy.schedule(env.rng.fork("resilience:device:0"))

        first, second = schedule(), schedule()
        assert first == second
        assert len(first) == 4
        # delays grow geometrically despite jitter (25% < 2x multiplier)
        assert all(b > a for a, b in zip(first, first[1:]))

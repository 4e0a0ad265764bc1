"""Tests for cloud snapshot/restore: a restart must not lose bindings.

A cloud restart is a *mass offline event*: every shadow that was online
drops to its offline state (Figure 2's timeout arcs) and devices
re-enter via their next heartbeat.  These tests check that the restart
is invisible to bound users apart from that blip.
"""

import json

import pytest

from repro.cloud.service import CloudService
from repro.cloud.state import SNAPSHOT_VERSION, build_snapshot, load_snapshot
from repro.core.errors import ConfigurationError
from repro.scenario import Deployment
from repro.vendors import vendor


def build_world(design_name="D-LINK", seed=81):
    world = Deployment(vendor(design_name), seed=seed)
    assert world.victim_full_setup()
    world.victim.app.set_schedule(world.victim.device.device_id, {"on": "19:00"})
    return world


def restart_cloud(world) -> CloudService:
    """Simulate a cloud restart: snapshot, shut down, constructor-restore."""
    data = build_snapshot(world.cloud)
    world.cloud.shutdown()
    fresh = CloudService.restore(world.env, world.network, world.design, data)
    world.cloud = fresh
    return fresh


class TestSnapshot:
    def test_snapshot_is_json_serializable(self):
        world = build_world()
        text = json.dumps(build_snapshot(world.cloud), sort_keys=True)
        data = json.loads(text)
        assert data["version"] == SNAPSHOT_VERSION
        assert data["design"] == "D-LINK"
        assert len(data["stores"]["bindings"]) == 1
        assert len(data["stores"]["accounts"]) == 2

    def test_snapshot_captures_schedule_and_post_token(self):
        world = build_world()
        data = build_snapshot(world.cloud)
        binding = data["stores"]["bindings"][0]
        assert binding["post_token"] is not None
        assert binding["device_confirmed"] is True
        schedules = [record["schedule"] for record in data["stores"]["relay"]]
        assert schedules == [{"on": "19:00"}]

    def test_snapshot_excludes_volatile_shadows(self):
        world = build_world()
        data = build_snapshot(world.cloud)
        assert "shadows" not in data["stores"]


class TestRestore:
    def test_restart_preserves_binding_and_recovers_control(self):
        world = build_world()
        restart_cloud(world)
        # immediately after restart: shadow offline but bound
        assert world.shadow_state() == "bound"
        assert world.bound_user() == world.victim.user_id
        # the device's next heartbeat restores full operation
        world.run_heartbeats(2)
        assert world.shadow_state() == "control"
        assert world.victim_can_control()

    def test_restart_preserves_user_sessions(self):
        world = build_world()
        restart_cloud(world)
        response = world.victim.app.query(world.victim.device.device_id)
        assert response.payload["schedule"] == {"on": "19:00"}

    def test_restart_preserves_dev_tokens(self):
        world = Deployment(vendor("Belkin"), seed=81)
        assert world.victim_full_setup()
        restart_cloud(world)
        world.run_heartbeats(2)
        assert world.shadow_state() == "control"  # old DevToken still valid

    def test_restart_preserves_pubkey_registry(self):
        from repro.secure import SECURE_PUBKEY

        world = Deployment(SECURE_PUBKEY, seed=81)
        assert world.victim_full_setup()
        restart_cloud(world)
        world.run_heartbeats(2)
        assert world.shadow_state() == "control"

    def test_restore_rejects_wrong_design(self):
        world = build_world()
        data = build_snapshot(world.cloud)
        other = Deployment(vendor("Belkin"), seed=82)
        with pytest.raises(ConfigurationError):
            load_snapshot(other.cloud, data)

    def test_restore_rejects_dirty_cloud(self):
        world = build_world()
        data = build_snapshot(world.cloud)
        with pytest.raises(ConfigurationError):
            load_snapshot(world.cloud, data)  # same, already-populated instance

    def test_restore_rejects_unknown_version(self):
        world = build_world()
        data = build_snapshot(world.cloud)
        data["version"] = 99
        other = Deployment(vendor("D-LINK"), seed=83)
        fresh_like = other.cloud
        with pytest.raises(ConfigurationError):
            load_snapshot(fresh_like, data)

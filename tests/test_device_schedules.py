"""Tests for device-side schedule execution (the D-LINK A1 target)."""

import pytest

from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.device.base import _crossed_time_of_day, _parse_time_of_day
from repro.scenario import Deployment


def make_world():
    design = VendorDesign(
        name="T", device_type="smart-plug",
        device_auth=DeviceAuthMode.DEV_ID, id_scheme="serial-number",
        heartbeat_interval=60.0, offline_timeout=200.0,
    )
    world = Deployment(design, seed=91)
    assert world.victim_full_setup()
    return world


class TestTimeParsing:
    @pytest.mark.parametrize("spec,expected", [
        ("00:00", 0.0),
        ("19:00", 19 * 3600.0),
        ("23:59", 23 * 3600.0 + 59 * 60.0),
    ])
    def test_valid_specs(self, spec, expected):
        assert _parse_time_of_day(spec) == expected

    @pytest.mark.parametrize("spec", [None, "", "19", "24:00", "12:60", "ab:cd"])
    def test_invalid_specs(self, spec):
        assert _parse_time_of_day(spec) is None


class TestCrossing:
    def test_simple_crossing(self):
        assert _crossed_time_of_day(100.0, 200.0, 150.0)
        assert not _crossed_time_of_day(100.0, 200.0, 250.0)
        assert not _crossed_time_of_day(100.0, 200.0, 50.0)

    def test_boundary_inclusive_on_the_right(self):
        assert _crossed_time_of_day(100.0, 200.0, 200.0)
        assert not _crossed_time_of_day(100.0, 200.0, 100.0)

    def test_midnight_wrap(self):
        late = 86400.0 - 60.0
        assert _crossed_time_of_day(late, 86400.0 + 60.0, 30.0)     # past 00:00:30
        assert _crossed_time_of_day(late, 86400.0 + 60.0, 86400.0 - 30.0)
        assert not _crossed_time_of_day(late, 86400.0 + 60.0, 3600.0)

    def test_full_day_always_crosses(self):
        assert _crossed_time_of_day(0.0, 90000.0, 12345.0)

    def test_no_time_passed(self):
        assert not _crossed_time_of_day(100.0, 100.0, 100.0)


class TestDeviceScheduleExecution:
    def test_schedule_syncs_to_device_via_fetch(self):
        world = make_world()
        device = world.victim.device
        world.victim.app.set_schedule(device.device_id, {"on": "01:00"})
        world.run_heartbeats(1)
        assert device.schedule == {"on": "01:00"}

    def test_device_turns_on_at_scheduled_time(self):
        world = make_world()
        device = world.victim.device
        world.victim.app.set_schedule(device.device_id, {"on": "01:00", "off": "02:00"})
        world.run_heartbeats(1)
        assert device.state["on"] is False
        world.env.run_until(1 * 3600.0 + 120.0)   # just past 01:00 virtual
        assert device.state["on"] is True
        world.env.run_until(2 * 3600.0 + 120.0)   # just past 02:00 virtual
        assert device.state["on"] is False
        scheduled = [c for c in device.executed_commands if c.issued_by == "schedule"]
        assert [c.command for c in scheduled] == ["on", "off"]

    def test_clearing_schedule_stops_execution(self):
        world = make_world()
        device = world.victim.device
        world.victim.app.set_schedule(device.device_id, {"on": "01:00"})
        world.run_heartbeats(1)
        world.victim.app.set_schedule(device.device_id, {})
        world.run_heartbeats(1)
        world.env.run_until(1 * 3600.0 + 120.0)
        assert device.state["on"] is False

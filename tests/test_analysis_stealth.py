"""Tests for the event feed and attack-detectability analysis."""

from repro.analysis.stealth import (
    probe_attack_detectability,
    stealth_survey,
)
from repro.cloud.policy import VendorDesign
from repro.scenario import Deployment
from repro.vendors import vendor


def notifying(base_name: str = "E-Link Smart", **overrides) -> VendorDesign:
    base = vendor(base_name)
    values = dict(base.__dict__)
    values["name"] = f"{base_name}+feed"
    values["notifies_user"] = True
    values.update(overrides)
    return VendorDesign(**values)


class TestEventFeed:
    def test_binding_lifecycle_emits_events(self):
        design = notifying()
        world = Deployment(design, seed=33)
        assert world.victim_full_setup()
        events = world.victim.app.poll_events()
        assert "binding-created" in [e["kind"] for e in events]

    def test_poll_is_cursor_based(self):
        design = notifying()
        world = Deployment(design, seed=33)
        assert world.victim_full_setup()
        world.victim.app.poll_events()
        assert world.victim.app.poll_events() == []  # drained

    def test_unbind_notifies_owner(self):
        design = notifying()
        world = Deployment(design, seed=33)
        assert world.victim_full_setup()
        world.victim.app.poll_events()
        world.victim.app.remove_device(world.victim.device.device_id)
        kinds = [e["kind"] for e in world.victim.app.poll_events()]
        assert "binding-unbound" in kinds

    def test_offline_timeout_notifies_owner(self):
        design = notifying()
        world = Deployment(design, seed=33)
        assert world.victim_full_setup()
        world.victim.app.poll_events()
        world.victim.device.power_off()
        world.run(60.0)
        kinds = [e["kind"] for e in world.victim.app.poll_events()]
        assert "device-offline" in kinds

    def test_silent_vendor_emits_nothing(self):
        world = Deployment(vendor("E-Link Smart"), seed=33)
        assert world.victim_full_setup()
        assert world.victim.app.poll_events() == []


class TestDetectability:
    def test_elink_hijack_is_stealthy_without_feed(self):
        report = probe_attack_detectability(vendor("E-Link Smart"), "A4-1", seed=33)
        assert report.attack_outcome == "yes"
        # the victim's very next app interaction fails, so the hijack is
        # not perfectly silent — but no notification ever arrives
        assert report.notifications == []

    def test_feed_makes_the_same_hijack_detectable(self):
        report = probe_attack_detectability(notifying(), "A4-1", seed=33)
        assert report.attack_outcome == "yes"
        assert "binding-replaced" in report.notifications
        assert report.detectable

    def test_a1_is_fully_stealthy_even_with_feed(self):
        # data injection/stealing changes no binding: nothing to notify
        design = notifying("D-LINK")
        report = probe_attack_detectability(design, "A1", seed=33)
        assert report.attack_outcome == "yes"
        assert report.stealthy_success

    def test_unbind_attack_detectable_via_feed(self):
        design = notifying("Belkin")
        report = probe_attack_detectability(design, "A3-2", seed=33)
        assert report.attack_outcome == "yes"
        assert "binding-unbound" in report.notifications

    def test_survey_covers_the_notifying_design(self):
        design = notifying()
        reports = stealth_survey(design, seed=33)
        assert {r.attack_id for r in reports} == {
            "A1", "A3-1", "A3-2", "A3-3", "A3-4", "A4-1", "A4-3",
        }

    def test_failed_attacks_are_never_stealthy_successes(self):
        reports = stealth_survey(vendor("Philips Hue"), seed=33)
        assert not any(r.stealthy_success for r in reports)

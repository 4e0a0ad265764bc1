"""Attack tests: each attack family's mechanics and per-vendor outcomes.

The headline cell-for-cell Table III check lives in
``test_analysis_evaluator.py``; these tests drill into the *mechanisms*
— why each attack succeeds or fails where it does.
"""

import pytest

from repro.attacks.attacker import RemoteAttacker
from repro.attacks.results import Outcome
from repro.attacks.runner import ATTACK_IDS, run_attack, run_all_attacks
from repro.scenario import Deployment
from repro.vendors import vendor


def run(vendor_name: str, attack_id: str, seed: int = 1):
    return run_attack(vendor(vendor_name), attack_id, seed=seed)


class TestA1DataInjectionAndStealing:
    def test_dlink_injection_and_stealing_succeed(self):
        report = run("D-LINK", "A1")
        assert report.outcome is Outcome.SUCCESS
        assert report.evidence["stolen_schedule"] == {"on": "19:00", "off": "23:00"}
        assert report.evidence["victim_sees"].get("forged") is True

    def test_dev_token_vendors_immune(self):
        for name in ("Belkin", "KONKE", "Lightstory"):
            report = run(name, "A1")
            assert report.outcome is Outcome.FAILED, name
            assert "DevToken" in report.reason

    def test_unknown_status_designs_unconfirmed(self):
        for name in ("BroadLink", "Orvibo", "Philips Hue"):
            report = run(name, "A1")
            assert report.outcome is Outcome.UNCONFIRMED, name

    def test_dev_id_without_firmware_unconfirmed(self):
        for name in ("OZWI", "E-Link Smart"):
            report = run(name, "A1")
            assert report.outcome is Outcome.UNCONFIRMED, name
            assert "firmware" in report.reason

    def test_tplink_forgery_accepted_but_no_data(self):
        report = run("TP-LINK", "A1")
        assert report.outcome is Outcome.FAILED
        assert "no user data" in report.reason


class TestA2BindingDos:
    def test_six_vendors_vulnerable(self):
        vulnerable = [
            name
            for name in ("Belkin", "BroadLink", "KONKE", "Lightstory", "Orvibo",
                          "OZWI", "Philips Hue", "TP-LINK", "E-Link Smart", "D-LINK")
            if run(name, "A2").outcome is Outcome.SUCCESS
        ]
        assert vulnerable == [
            "Belkin", "BroadLink", "Lightstory", "Orvibo", "OZWI", "D-LINK"
        ]

    def test_philips_blocked_by_ip_match(self):
        report = run("Philips Hue", "A2")
        assert report.outcome is Outcome.FAILED
        assert "no-fresh-registration" in report.reason or "ip-mismatch" in report.reason

    def test_konke_recovers_via_replacement(self):
        report = run("KONKE", "A2")
        assert report.outcome is Outcome.FAILED
        assert "replaced" in report.reason

    def test_tplink_blocked_by_online_requirement(self):
        report = run("TP-LINK", "A2")
        assert report.outcome is Outcome.FAILED
        assert "device-offline" in report.reason

    def test_dos_leaves_attacker_bound(self):
        report = run("D-LINK", "A2")
        assert report.evidence["bound_user"] == "mallory@example.com"


class TestA3Unbinding:
    def test_tplink_bare_devid_unbind(self):
        report = run("TP-LINK", "A3-1")
        assert report.outcome is Outcome.SUCCESS

    def test_others_lack_type2_endpoint(self):
        for name in ("Belkin", "OZWI", "D-LINK"):
            assert run(name, "A3-1").outcome is Outcome.FAILED, name

    def test_unchecked_unbind_on_belkin_and_orvibo(self):
        assert run("Belkin", "A3-2").outcome is Outcome.SUCCESS
        assert run("Orvibo", "A3-2").outcome is Outcome.SUCCESS

    def test_checked_unbind_rejects_foreign_token(self):
        for name in ("BroadLink", "Lightstory", "OZWI", "D-LINK", "TP-LINK"):
            report = run(name, "A3-2")
            assert report.outcome is Outcome.FAILED, name
            assert "not-bound-user" in report.reason

    def test_konke_rebind_disconnects_but_cannot_control(self):
        report = run("KONKE", "A3-3")
        assert report.outcome is Outcome.SUCCESS
        assert "DevToken" in report.reason

    def test_elink_rebind_escalates_to_hijack(self):
        report = run("E-Link Smart", "A3-3")
        assert report.outcome is Outcome.ESCALATED

    def test_rebind_rejected_where_no_replacement(self):
        for name in ("Belkin", "OZWI", "D-LINK"):
            assert run(name, "A3-3").outcome is Outcome.FAILED, name

    def test_tplink_status_forgery_evicts_device(self):
        report = run("TP-LINK", "A3-4")
        assert report.outcome is Outcome.SUCCESS
        assert report.evidence["connection"] == "app:attacker"

    def test_dlink_tolerates_duplicate_connections(self):
        report = run("D-LINK", "A3-4")
        assert report.outcome is Outcome.FAILED
        assert "kept the real device" in report.reason


class TestA4Hijacking:
    def test_elink_hijacked_by_rebind(self):
        report = run("E-Link Smart", "A4-1")
        assert report.outcome is Outcome.SUCCESS
        assert report.evidence["executed"] == "a4-1-takeover"

    def test_ozwi_hijacked_in_setup_window(self):
        report = run("OZWI", "A4-2")
        assert report.outcome is Outcome.SUCCESS

    def test_tplink_hijacked_by_unbind_then_bind(self):
        report = run("TP-LINK", "A4-3")
        assert report.outcome is Outcome.SUCCESS

    def test_tplink_window_not_applicable(self):
        report = run("TP-LINK", "A4-2")
        assert report.outcome is Outcome.NOT_APPLICABLE

    def test_dev_token_rotation_blocks_window_hijack(self):
        report = run("Belkin", "A4-2")
        assert report.outcome is Outcome.FAILED
        assert "does not follow" in report.reason

    def test_post_binding_token_blocks_dlink_hijack(self):
        for attack_id in ("A4-1", "A4-2", "A4-3"):
            report = run("D-LINK", attack_id)
            assert report.outcome is Outcome.FAILED, attack_id

    def test_hijacked_device_really_executes_attacker_commands(self):
        # End-to-end ground truth: the physical device object ran it.
        design = vendor("E-Link Smart")
        deployment = Deployment(design, seed=1)
        attacker = RemoteAttacker(deployment)
        attacker.login()
        assert deployment.victim_full_setup()
        attacker.learn_victim_device_id(deployment.victim.device.device_id)
        accepted, _, response = attacker.send(attacker.forge_bind())
        assert accepted
        attacker.control_victim_device("stream-to-attacker")
        deployment.run_heartbeats(2)
        executed = deployment.victim.device.executed_commands
        assert any(
            c.command == "stream-to-attacker" and c.issued_by == "mallory@example.com"
            for c in executed
        )


class TestRunnerDiscipline:
    def test_unknown_attack_id_rejected(self):
        from repro.core.errors import AttackPreconditionError

        with pytest.raises(AttackPreconditionError):
            run_attack(vendor("Belkin"), "A9")

    def test_full_battery_covers_all_ids(self):
        reports = run_all_attacks(vendor("Belkin"), seed=1)
        assert set(reports) == set(ATTACK_IDS)

    def test_each_attack_gets_a_fresh_world(self):
        # A2 (initial state) after A4-1 (control state) must not see the
        # previous world's binding.
        first = run("OZWI", "A4-1", seed=2)
        second = run("OZWI", "A2", seed=2)
        assert second.outcome is Outcome.SUCCESS  # would fail on a dirty world

    @pytest.mark.parametrize("name", ["OZWI", "E-Link Smart"])
    def test_consecutive_control_attacks_each_see_the_victims_binding(
        self, name, monkeypatch
    ):
        # The second control attack at a seed restores the staged world
        # the first one captured; it must find the victim bound, even
        # where the first attack hijacked the device (E-Link Smart).
        from repro.attacks import runner

        seen = []
        for attack_id in ("A4-1", "A3-2"):
            attack_fn, state = runner.ATTACKS[attack_id]

            def spy(deployment, attacker, attack_fn=attack_fn):
                seen.append(deployment.bound_user())
                return attack_fn(deployment, attacker)

            monkeypatch.setitem(runner.ATTACKS, attack_id, (spy, state))
        runner._staged_worlds.clear()
        first = run(name, "A4-1", seed=5)
        run(name, "A3-2", seed=5)
        assert seen == ["alice@example.com", "alice@example.com"]
        assert (first.outcome is Outcome.SUCCESS) == (name == "E-Link Smart")

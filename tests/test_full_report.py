"""Tests for the compiled full report."""

import pytest

from repro.analysis.full_report import render_full_report
from repro.analysis.stealth import stealth_survey
from repro.attacks.attacker import RemoteAttacker
from repro.attacks.traffic_analysis import analyze_own_traffic
from repro.cli import main
from repro.scenario import Deployment
from repro.vendors import STUDIED_VENDORS


@pytest.fixture(scope="module")
def report():
    return render_full_report(seed=3)


class TestFullReport:
    def test_covers_every_paper_artifact(self, report):
        for marker in (
            "Table I — notation",
            "Figure 1 — binding life cycle",
            "Figure 2 — device-shadow state machine",
            "Figure 3 — device authentication designs",
            "Figure 4 — binding creation designs",
            "Table II — attack taxonomy",
            "Table III — ten-vendor evaluation",
        ):
            assert marker in report, marker

    def test_covers_every_extension(self, report):
        for marker in (
            "Device-ID enumerability",
            "Recommended designs under the battery",
            "Design-space sweep",
            "Model-checked witnesses",
            "Minimal fixes per vendor",
            "Section VII design lint",
            "Setup-cost overhead",
            "§VI-A — forgery playbooks from own-app traffic",
            "Attack stealth (what the victim sees)",
            "§V-B — A1 cascade through an automation rule",
        ):
            assert marker in report, marker

    def test_every_studied_playbook_locates_the_device_id(self, report):
        """Section VI-A: own-app traffic reveals where the ID goes."""
        for design in STUDIED_VENDORS:
            deployment = Deployment(design, seed=3)
            playbook = analyze_own_traffic(deployment, RemoteAttacker(deployment))
            assert playbook.id_field == "device_id", design.name
        assert "=> 10/10 playbooks locate the device ID in 'device_id'" in report

    def test_successful_attacks_notify_no_victim(self, report):
        """The abstract's stealthy control: no studied vendor tells the
        victim about any attack that worked."""
        successes = [
            row for design in STUDIED_VENDORS
            for row in stealth_survey(design, seed=3)
            if row.attack_outcome in ("yes", "O", "escalated")
        ]
        assert len(successes) == 19
        assert not any(row.notifications for row in successes)
        assert "=> 0 of 19 successful attacks produced a user notification" in report

    def test_one_forged_status_flips_the_ac_plug(self, report):
        """Section V-B: fake sensor data switches the air conditioner."""
        section = report.split("§V-B — A1 cascade")[1]
        assert "0 firing(s), AC plug on: False" in section
        assert "(temperature_c=45.0): accepted" in section
        assert "=> AC plug on: False -> True" in section

    def test_reports_exact_reproduction(self, report):
        assert "RESULT: exact reproduction" in report

    def test_all_model_properties_hold(self, report):
        assert "VIOLATED" not in report

    def test_cli_report_command(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

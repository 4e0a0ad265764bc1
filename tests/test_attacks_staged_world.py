"""Staged-world memo: a restored attack world is a fresh world.

:func:`~repro.attacks.runner.run_attack` stages each shared targeted
state (``control``) cold once per design and seed, captures a
:class:`~repro.attacks.runner.StagedWorld`, and overlays that image on
later attacks' freshly built worlds.  These tests pin that the overlay
is exact (the world before the attack, the report and the world after
it all equal a cold run's, for every design, ``control`` attack and a
few seeds) and that the memo stays small, typed, bounded, data-only and
out of observed runs.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.attacks import runner
from repro.attacks.attacker import RemoteAttacker
from repro.attacks.runner import (
    ATTACKS,
    STAGED_WORLD_MEMO_SIZE,
    StagedWorld,
    prepare_state,
    run_attack,
)
from repro.core.errors import AttackPreconditionError
from repro.obs.runtime import Observability
from repro.scenario import Deployment
from repro.secure import SECURE_BASELINES
from repro.vendors import STUDIED_VENDORS, vendor

ALL_DESIGNS = tuple(STUDIED_VENDORS) + tuple(SECURE_BASELINES)
CONTROL_ATTACKS = [aid for aid, (_, state) in ATTACKS.items() if state == "control"]
SEEDS = (0, 1, 7)


@pytest.fixture(autouse=True)
def empty_memo():
    runner._staged_worlds.clear()
    yield
    runner._staged_worlds.clear()


def world(deployment, attacker):
    """Everything an attack can read or change, as comparable values."""
    cloud, env = deployment.cloud, deployment.env
    parties = (deployment.victim, deployment.attacker_party)
    return {
        "stores": {
            name: store.snapshot_state()
            for name, store in cloud.state_stores().items()
        },
        "campaign": cloud.capture_campaign_state(),
        "audit": list(cloud.audit.rows),
        "forensics": cloud.forensics.snapshot_state(),
        "time": env.now,
        "rng": env.rng.getstate(),
        "trace": deployment.network.trace_state(),
        "devices": [party.device.capture_fields() for party in parties],
        "apps": [party.app.capture_fields() for party in parties],
        "proxy": [
            tuple(getattr(packet, slot) for slot in type(packet).__slots__)
            for packet in attacker.proxy.log
        ],
        "scheduled": len(env.scheduler),
    }


def before_during_after(deployment, attacker, attack_fn):
    """The world before the attack, its report, and the world after it
    and after two more heartbeats (sensor streams and timers resume)."""
    before = world(deployment, attacker)
    report = attack_fn(deployment, attacker)
    after = world(deployment, attacker)
    deployment.run_heartbeats(2)
    return before, report, after, world(deployment, attacker)


def cold(design, attack_id, seed):
    """The reference: stage by replaying Figure 1, no memo involved."""
    attack_fn, state = ATTACKS[attack_id]
    deployment = Deployment(design, seed=seed)
    attacker = RemoteAttacker(deployment)
    attacker.login()
    prepare_state(deployment, state)
    return before_during_after(deployment, attacker, attack_fn)


def memoized(design, attack_id, seed):
    """What ``run_attack`` does: stage through the memo, then attack."""
    attack_fn, state = ATTACKS[attack_id]
    deployment = Deployment(design, seed=seed)
    attacker = RemoteAttacker(deployment)
    runner._stage(deployment, attacker, state, runner.NULL_OBSERVER)
    return before_during_after(deployment, attacker, attack_fn)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.name)
    def test_every_control_attack_matches_a_cold_run(self, design):
        for seed in SEEDS:
            runner._staged_worlds.clear()
            # The first attack stages cold and captures; the rest
            # restore.  The capturing world is checked too, so a
            # capture that disturbed its own world would show.
            for index, attack_id in enumerate(CONTROL_ATTACKS + CONTROL_ATTACKS[:1]):
                got = memoized(design, attack_id, seed)
                want = cold(design, attack_id, seed)
                for part, name in enumerate(("before", "report", "after", "later")):
                    assert got[part] == want[part], (design.name, attack_id, seed, index, name)
            assert len(runner._staged_worlds) == 1

    def test_run_attack_reports_match_cold_runs(self):
        for attack_id in CONTROL_ATTACKS:
            for _ in range(2):
                report = run_attack(vendor("D-LINK"), attack_id, seed=3)
                assert report == cold(vendor("D-LINK"), attack_id, 3)[1]


class TestMemo:
    def test_only_shared_states_are_imaged(self):
        assert runner.SHARED_STATES == {"control"}
        run_attack(vendor("OZWI"), "A2", seed=1)
        run_attack(vendor("OZWI"), "A4-2", seed=1)
        assert not runner._staged_worlds
        run_attack(vendor("OZWI"), "A1", seed=1)
        assert len(runner._staged_worlds) == 1

    def test_equal_knobs_of_different_types_do_not_share(self):
        as_int = dataclasses.replace(vendor("D-LINK"), bind_window_seconds=30)
        as_float = dataclasses.replace(as_int, bind_window_seconds=30.0)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        run_attack(as_int, "A1", seed=1)
        run_attack(as_float, "A1", seed=1)
        assert len(runner._staged_worlds) == 2

    def test_memo_stays_at_its_bound(self):
        for seed in range(STAGED_WORLD_MEMO_SIZE + 4):
            run_attack(vendor("TP-LINK"), "A3-1", seed=seed)
            assert len(runner._staged_worlds) <= STAGED_WORLD_MEMO_SIZE
        assert len(runner._staged_worlds) == STAGED_WORLD_MEMO_SIZE
        oldest = next(iter(runner._staged_worlds))
        assert oldest[2] == 4  # seeds 0-3 were evicted first

    def test_memo_holds_no_live_world(self):
        run_attack(vendor("D-LINK"), "A1", seed=4)
        deployment = Deployment(vendor("D-LINK"), seed=4)
        attacker = RemoteAttacker(deployment)
        runner._stage(deployment, attacker, "control", runner.NULL_OBSERVER)
        image = next(iter(runner._staged_worlds.values()))
        assert isinstance(image, StagedWorld)
        world_ref = weakref.ref(deployment)
        cloud_ref = weakref.ref(deployment.cloud)
        del deployment, attacker
        gc.collect()
        assert world_ref() is None
        assert cloud_ref() is None

    def test_observed_run_stages_cold_after_the_memo_is_warm(self):
        run_attack(vendor("D-LINK"), "A1", seed=2)
        assert len(runner._staged_worlds) == 1
        obs = Observability()
        report = run_attack(vendor("D-LINK"), "A3-2", seed=2, observer=obs)
        names = [span.name for span in obs.tracer.walk()]
        assert "prepare" in names
        assert report == cold(vendor("D-LINK"), "A3-2", 2)[1]
        assert len(runner._staged_worlds) == 1

    def test_failed_staging_memoizes_nothing(self, monkeypatch):
        monkeypatch.setattr(Deployment, "victim_full_setup", lambda self: False)
        for _ in range(2):
            with pytest.raises(AttackPreconditionError):
                run_attack(vendor("OZWI"), "A1", seed=1)
            assert not runner._staged_worlds


class TestColdPathGate:
    """``tools/check_design_matrix.py`` compares observed and memoized batteries."""

    def gate(self):
        import pathlib
        import sys

        tools = pathlib.Path(__file__).resolve().parent.parent / "tools"
        sys.path.insert(0, str(tools))
        try:
            import check_design_matrix
        finally:
            sys.path.remove(str(tools))
        return check_design_matrix

    def test_gate_passes_on_the_tree(self, capsys):
        assert self.gate().check_cold_path() == 0
        assert "cold-path gate" in capsys.readouterr().out

    def test_gate_names_the_first_diverging_attack(self, monkeypatch, capsys):
        restore = StagedWorld.restore

        def stale_restore(self, deployment, attacker):
            restore(self, deployment, attacker)
            deployment.victim.device.executed_commands.append("stale")

        monkeypatch.setattr(StagedWorld, "restore", stale_restore)
        monkeypatch.setattr(
            runner, "ATTACKS",
            {aid: (lambda d, a, aid=aid: _echo(aid, d), state)
             for aid, (_, state) in ATTACKS.items()},
        )
        assert self.gate().check_cold_path() == 1
        assert "FAIL: Belkin A3-1" in capsys.readouterr().out


def _echo(attack_id, deployment):
    """A stand-in attack whose report shows the victim device's history."""
    from repro.attacks.results import AttackReport, Outcome

    commands = len(deployment.victim.device.executed_commands)
    return AttackReport(attack_id, deployment.design.name, Outcome.FAILED, str(commands))

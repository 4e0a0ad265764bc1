"""Store sync: after setup and after every attack, each shadow's bound
user agrees with the cloud's binding table.

The shadow state itself cannot drift from Figure 2 (``DeviceShadow.apply``
is its only writer and computes every transition with ``next_state``),
so the one cross-store invariant left to check is the binding table
against the shadows' ``bound_user``.
"""

import pytest

from repro.attacks.attacker import RemoteAttacker
from repro.attacks.runner import ATTACK_IDS, ATTACKS, prepare_state
from repro.cloud.policy import BindSender
from repro.scenario import Deployment
from repro.vendors import STUDIED_VENDORS, vendor


def store_sync_violations(cloud):
    """Every shadow whose bound user differs from the binding table."""
    return [
        f"{shadow.device_id}: shadow bound_user={shadow.bound_user!r} "
        f"(is_bound={shadow.is_bound}) != table "
        f"{cloud.bindings.bound_user(shadow.device_id)!r}"
        for shadow in cloud.shadows.all()
        if shadow.bound_user != cloud.bindings.bound_user(shadow.device_id)
        or shadow.is_bound != (shadow.bound_user is not None)
    ]


class TestDeploymentConformance:
    def test_full_setup_conforms(self):
        world = Deployment(vendor("D-LINK"), seed=8)
        assert world.victim_full_setup()
        assert len(world.cloud.shadows.all()) == 2  # victim + attacker units
        assert store_sync_violations(world.cloud) == []

    @pytest.mark.parametrize("design", STUDIED_VENDORS, ids=lambda d: d.name)
    def test_cloud_conforms_after_every_attack(self, design):
        """Even under attack, the shadows and the binding table agree."""
        for attack_id in ATTACK_IDS:
            if attack_id == "A4-2" and design.bind_sender is BindSender.DEVICE:
                continue  # no online-unbound window (run_attack: N.A.)
            attack_fn, targeted_state = ATTACKS[attack_id]
            world = Deployment(design, seed=8)
            attacker = RemoteAttacker(world)
            attacker.login()
            prepare_state(world, targeted_state)
            attack_fn(world, attacker)
            world.run(30.0)
            assert store_sync_violations(world.cloud) == [], attack_id

    def test_store_desync_detected(self):
        world = Deployment(vendor("D-LINK"), seed=8)
        assert world.victim_full_setup()
        # tamper: drop the binding table entry but not the shadow flag
        world.cloud.bindings.revoke(world.victim.device.device_id)
        violations = store_sync_violations(world.cloud)
        assert len(violations) == 1
        assert world.victim.device.device_id in violations[0]

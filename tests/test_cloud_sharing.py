"""Tests for device sharing (many-to-one bindings, Section III-B)."""

import pytest

from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.cloud.sharing import ShareStore
from repro.core.errors import BindingConflict
from repro.scenario import Deployment
from repro.vendors import vendor


def shared_world(**overrides):
    defaults = dict(
        name="T", device_type="smart-plug",
        device_auth=DeviceAuthMode.DEV_ID, id_scheme="serial-number",
    )
    defaults.update(overrides)
    world = Deployment(VendorDesign(**defaults), seed=31)
    assert world.victim_full_setup()
    # mallory plays the *legitimate* second household member here
    world.attacker_party.app.login()
    return world


class TestShareStore:
    def test_grant_and_query(self):
        store = ShareStore()
        store.grant("d", "alice", "bob", 1.0)
        assert store.is_granted("d", "bob")
        assert store.grantees_of("d") == ["bob"]

    def test_duplicate_and_self_grants_rejected(self):
        store = ShareStore()
        store.grant("d", "alice", "bob", 1.0)
        with pytest.raises(BindingConflict):
            store.grant("d", "alice", "bob", 2.0)
        with pytest.raises(BindingConflict):
            store.grant("d", "alice", "alice", 2.0)

    def test_revoke(self):
        store = ShareStore()
        store.grant("d", "alice", "bob", 1.0)
        assert store.revoke("d", "bob")
        assert not store.revoke("d", "bob")
        assert not store.is_granted("d", "bob")

    def test_revoke_all(self):
        store = ShareStore()
        store.grant("d", "alice", "bob", 1.0)
        store.grant("d", "alice", "carol", 1.0)
        assert store.revoke_all("d") == 2
        assert store.grantees_of("d") == []


class TestSharingEndToEnd:
    def test_owner_shares_and_grantee_controls(self):
        world = shared_world()
        device_id = world.victim.device.device_id
        assert world.victim.app.share_device(device_id, "mallory@example.com")
        response = world.attacker_party.app.control(device_id, "on")
        assert response.ok
        world.run_heartbeats(1)
        executed = world.victim.device.executed_commands[-1]
        assert executed.issued_by == "mallory@example.com"

    def test_grantee_can_query(self):
        world = shared_world()
        device_id = world.victim.device.device_id
        world.victim.app.share_device(device_id, "mallory@example.com")
        response = world.attacker_party.app.query(device_id)
        assert response.payload["state"] == "control"

    def test_non_grantee_still_rejected(self):
        world = shared_world()
        device_id = world.victim.device.device_id
        with pytest.raises(Exception):
            world.attacker_party.app.control(device_id, "on")

    def test_grantee_cannot_unbind(self):
        world = shared_world()
        device_id = world.victim.device.device_id
        world.victim.app.share_device(device_id, "mallory@example.com")
        assert not world.attacker_party.app.remove_device(device_id)
        assert world.bound_user() == world.victim.user_id

    def test_grantee_cannot_reshare(self):
        world = shared_world()
        device_id = world.victim.device.device_id
        world.victim.app.share_device(device_id, "mallory@example.com")
        assert not world.attacker_party.app.share_device(device_id, "mallory@example.com")

    def test_only_owner_can_share(self):
        world = shared_world()
        device_id = world.victim.device.device_id
        assert not world.attacker_party.app.share_device(device_id, "mallory@example.com")

    def test_unknown_grantee_rejected(self):
        world = shared_world()
        assert not world.victim.app.share_device(
            world.victim.device.device_id, "nobody@example.com"
        )

    def test_share_revocation_cuts_access(self):
        world = shared_world()
        device_id = world.victim.device.device_id
        world.victim.app.share_device(device_id, "mallory@example.com")
        assert world.victim.app.revoke_share(device_id, "mallory@example.com")
        with pytest.raises(Exception):
            world.attacker_party.app.control(device_id, "on")

    def test_revoking_nonexistent_share_fails(self):
        world = shared_world()
        assert not world.victim.app.revoke_share(
            world.victim.device.device_id, "mallory@example.com"
        )

    def test_grants_die_with_the_binding(self):
        world = shared_world()
        device_id = world.victim.device.device_id
        world.victim.app.share_device(device_id, "mallory@example.com")
        assert world.victim.app.remove_device(device_id)
        assert not world.cloud.shares.is_granted(device_id, "mallory@example.com")

    def test_sharing_works_with_post_binding_token_designs(self):
        world = Deployment(vendor("D-LINK"), seed=31)
        assert world.victim_full_setup()
        world.attacker_party.app.login()
        device_id = world.victim.device.device_id
        assert world.victim.app.share_device(device_id, "mallory@example.com")
        response = world.attacker_party.app.control(device_id, "on")
        assert response.ok

    def test_sharing_does_not_weaken_hijack_defences(self):
        # A shared D-LINK still defeats A4-1: the grant is explicit,
        # never ambient authority.
        from repro.attacks.runner import run_attack
        from repro.attacks.results import Outcome

        report = run_attack(vendor("D-LINK"), "A4-1", seed=31)
        assert report.outcome is Outcome.FAILED

"""Unit tests for the cloud's stores: accounts, registry, bindings,
shadows, relay, audit."""

import pytest

from repro.cloud.accounts import AccountStore
from repro.cloud.audit import AuditLog
from repro.cloud.bindings import BindingStore
from repro.cloud.registry import DeviceRegistry
from repro.cloud.relay import QueuedCommand, Relay
from repro.cloud.shadows import ShadowStore
from repro.core.errors import (
    AuthenticationFailed,
    BindingConflict,
    ConfigurationError,
    UnknownDevice,
)
from repro.identity.tokens import TokenService
from repro.net.address import IpAddress
from repro.sim.rand import DeterministicRandom


@pytest.fixture
def tokens():
    return TokenService(DeterministicRandom(11))


class TestAccounts:
    def test_register_login_roundtrip(self, tokens):
        accounts = AccountStore(tokens)
        accounts.register("alice", "pw")
        token = accounts.login("alice", "pw")
        assert accounts.user_for_token(token) == "alice"
        assert accounts.require_user(token) == "alice"

    def test_wrong_password_rejected(self, tokens):
        accounts = AccountStore(tokens)
        accounts.register("alice", "pw")
        with pytest.raises(AuthenticationFailed):
            accounts.login("alice", "wrong")

    def test_unknown_user_rejected(self, tokens):
        accounts = AccountStore(tokens)
        with pytest.raises(AuthenticationFailed):
            accounts.login("ghost", "pw")
        assert not accounts.check_password("ghost", "pw")

    def test_duplicate_registration_rejected(self, tokens):
        accounts = AccountStore(tokens)
        accounts.register("alice", "pw")
        with pytest.raises(ConfigurationError):
            accounts.register("alice", "pw2")

    def test_empty_credentials_rejected(self, tokens):
        accounts = AccountStore(tokens)
        with pytest.raises(ConfigurationError):
            accounts.register("", "pw")
        with pytest.raises(ConfigurationError):
            accounts.register("bob", "")

    def test_user_id_with_a_colon_rejected(self, tokens):
        # share records are keyed ``device:grantee`` and split at the
        # last colon, since MAC device IDs carry colons
        accounts = AccountStore(tokens)
        with pytest.raises(ConfigurationError, match="':'"):
            accounts.register("eve:bob", "pw")

    def test_logout_invalidates_token(self, tokens):
        accounts = AccountStore(tokens)
        accounts.register("alice", "pw")
        token = accounts.login("alice", "pw")
        assert accounts.logout(token)
        assert accounts.user_for_token(token) is None

    def test_require_user_raises_on_bad_token(self, tokens):
        accounts = AccountStore(tokens)
        with pytest.raises(AuthenticationFailed):
            accounts.require_user("bogus")
        with pytest.raises(AuthenticationFailed):
            accounts.require_user(None)

    def test_passwords_not_stored_in_clear(self, tokens):
        accounts = AccountStore(tokens)
        account = accounts.register("alice", "pw")
        assert "pw" not in account.password_digest


class TestRegistry:
    def test_manufacture_and_lookup(self, tokens):
        registry = DeviceRegistry(tokens)
        registry.manufacture("dev-1", "plug")
        assert registry.is_registered("dev-1")
        assert not registry.is_registered("dev-2")
        assert not registry.is_registered(None)
        assert registry.get("dev-1").model == "plug"

    def test_unknown_device_raises(self, tokens):
        registry = DeviceRegistry(tokens)
        with pytest.raises(UnknownDevice):
            registry.get("ghost")

    def test_duplicate_manufacture_rejected(self, tokens):
        registry = DeviceRegistry(tokens)
        registry.manufacture("dev-1", "plug")
        with pytest.raises(ConfigurationError):
            registry.manufacture("dev-1", "plug")

    def test_dev_token_issue_and_check(self, tokens):
        registry = DeviceRegistry(tokens)
        registry.manufacture("dev-1", "plug")
        token = registry.issue_dev_token("dev-1", "alice")
        assert registry.check_dev_token("dev-1", token)
        assert not registry.check_dev_token("dev-1", "wrong")
        assert not registry.check_dev_token("dev-2", token)
        assert not registry.check_dev_token("dev-1", None)

    def test_reissue_rotates_old_token(self, tokens):
        registry = DeviceRegistry(tokens)
        registry.manufacture("dev-1", "plug")
        old = registry.issue_dev_token("dev-1", "alice")
        new = registry.issue_dev_token("dev-1", "alice")
        assert not registry.check_dev_token("dev-1", old)
        assert registry.check_dev_token("dev-1", new)

    def test_rotation_skipped_for_same_binding_user(self, tokens):
        registry = DeviceRegistry(tokens)
        registry.manufacture("dev-1", "plug")
        token = registry.issue_dev_token("dev-1", "alice")
        assert registry.rotate_for_new_binding("dev-1", "alice") is None
        assert registry.check_dev_token("dev-1", token)  # still valid

    def test_rotation_for_different_user_locks_out_old_holder(self, tokens):
        registry = DeviceRegistry(tokens)
        registry.manufacture("dev-1", "plug")
        old = registry.issue_dev_token("dev-1", "alice")
        fresh = registry.rotate_for_new_binding("dev-1", "mallory")
        assert fresh is not None
        assert not registry.check_dev_token("dev-1", old)
        assert registry.check_dev_token("dev-1", fresh)


class TestBindings:
    def test_create_and_query(self):
        store = BindingStore()
        store.create("dev-1", "alice", now=1.0)
        assert store.is_bound("dev-1")
        assert store.bound_user("dev-1") == "alice"
        assert store.devices_of("alice") == ["dev-1"]
        assert store.record_count() == 1

    def test_double_bind_requires_replace(self):
        store = BindingStore()
        store.create("dev-1", "alice", now=1.0)
        with pytest.raises(BindingConflict):
            store.create("dev-1", "mallory", now=2.0)
        store.create("dev-1", "mallory", now=2.0, replace=True)
        assert store.bound_user("dev-1") == "mallory"

    def test_revoke(self):
        store = BindingStore()
        store.create("dev-1", "alice", now=1.0)
        binding = store.revoke("dev-1")
        assert binding.user_id == "alice"
        assert not store.is_bound("dev-1")
        with pytest.raises(BindingConflict):
            store.revoke("dev-1")

    def test_post_token_confirmation(self):
        store = BindingStore()
        binding = store.create("dev-1", "alice", now=1.0, post_token="tok")
        assert not binding.device_confirmed
        assert not binding.confirm_device("wrong")
        assert binding.confirm_device("tok")
        assert binding.device_confirmed


class TestShadowStoreAndRelay:
    def test_sweep_marks_silent_shadows_offline(self):
        store = ShadowStore()
        shadow = store.create("dev-1")
        shadow.mark_status(time=0.0, connection_id="c")
        assert store.sweep_offline(now=5.0, timeout=10.0) == []
        assert store.sweep_offline(now=20.0, timeout=10.0) == ["dev-1"]
        assert not shadow.is_online

    def test_registration_marks(self):
        store = ShadowStore()
        store.create("dev-1")
        store.mark_registration("dev-1", 3.0, IpAddress("1.2.3.4"))
        mark = store.registration_of("dev-1")
        assert mark.time == 3.0 and str(mark.source_ip) == "1.2.3.4"
        assert store.registration_of("dev-2") is None

    def test_unknown_shadow_raises(self):
        with pytest.raises(UnknownDevice):
            ShadowStore().get("ghost")

    def test_relay_command_queue(self):
        relay = Relay()
        relay.queue_command("dev-1", QueuedCommand("on", {}, "alice", 1.0))
        assert len(relay.pending_commands("dev-1")) == 1
        drained = relay.drain_commands("dev-1")
        assert [c.command for c in drained] == ["on"]
        assert relay.drain_commands("dev-1") == []

    def test_relay_schedule_and_telemetry(self):
        relay = Relay()
        relay.set_schedule("dev-1", {"on": "19:00"})
        relay.report_telemetry("dev-1", {"w": 5}, now=1.0, connection="c")
        assert relay.schedule_of("dev-1") == {"on": "19:00"}
        assert relay.telemetry_of("dev-1").data == {"w": 5}
        relay.forget_device("dev-1")
        assert relay.schedule_of("dev-1") is None
        assert relay.telemetry_of("dev-1") is None

    def test_empty_telemetry_not_recorded(self):
        relay = Relay()
        relay.report_telemetry("dev-1", {}, now=1.0, connection="c")
        assert relay.telemetry_of("dev-1") is None


class TestAudit:
    def test_record_and_filter(self):
        audit = AuditLog()
        audit.record(1.0, "app", "1.1.1.1", "Bind:(DevId,UserToken)", "ok")
        audit.record(2.0, "attacker", "2.2.2.2", "Bind:(DevId,UserToken)", "already-bound")
        assert len(audit) == 2
        assert len(audit.rejected()) == 1
        assert audit.last_outcome("Bind") == "already-bound"
        assert "already-bound" in audit.render()
        assert audit.last_outcome("Unbind") is None

"""Unit tests for the DeviceShadow state machine (Figure 2)."""

import pytest

from repro.core.errors import SimulationError
from repro.core.shadow import TRANSITIONS, DeviceShadow, next_state
from repro.core.states import ShadowEvent, ShadowState


class TestTransitionFunction:
    def test_numbered_transition_1_device_auth(self):
        assert next_state(ShadowState.INITIAL, ShadowEvent.STATUS_RECEIVED) is ShadowState.ONLINE

    def test_numbered_transition_2_bind_before_auth(self):
        assert next_state(ShadowState.INITIAL, ShadowEvent.BIND_CREATED) is ShadowState.BOUND

    def test_numbered_transition_3_unbind_offline(self):
        assert next_state(ShadowState.BOUND, ShadowEvent.BIND_REVOKED) is ShadowState.INITIAL

    def test_numbered_transition_4_bind_after_auth(self):
        assert next_state(ShadowState.ONLINE, ShadowEvent.BIND_CREATED) is ShadowState.CONTROL

    def test_numbered_transition_5_unbind_online(self):
        assert next_state(ShadowState.CONTROL, ShadowEvent.BIND_REVOKED) is ShadowState.ONLINE

    def test_numbered_transition_6_auth_when_bound(self):
        assert next_state(ShadowState.BOUND, ShadowEvent.STATUS_RECEIVED) is ShadowState.CONTROL

    def test_timeout_transitions(self):
        assert next_state(ShadowState.ONLINE, ShadowEvent.STATUS_TIMEOUT) is ShadowState.INITIAL
        assert next_state(ShadowState.CONTROL, ShadowEvent.STATUS_TIMEOUT) is ShadowState.BOUND

    def test_unlisted_pairs_are_self_loops(self):
        assert next_state(ShadowState.CONTROL, ShadowEvent.STATUS_RECEIVED) is ShadowState.CONTROL
        assert next_state(ShadowState.INITIAL, ShadowEvent.BIND_REVOKED) is ShadowState.INITIAL
        assert next_state(ShadowState.INITIAL, ShadowEvent.STATUS_TIMEOUT) is ShadowState.INITIAL

    def test_exactly_eight_effective_transitions(self):
        assert len(TRANSITIONS) == 8


class TestDeviceShadow:
    def test_starts_initial(self):
        shadow = DeviceShadow("dev-1")
        assert shadow.state is ShadowState.INITIAL
        assert shadow.bound_user is None

    def test_status_then_bind_reaches_control(self):
        shadow = DeviceShadow("dev-1")
        shadow.mark_status(time=1.0, connection_id="conn-a")
        shadow.mark_bound("alice", time=2.0)
        assert shadow.state is ShadowState.CONTROL
        assert shadow.bound_user == "alice"
        assert shadow.connection_id == "conn-a"

    def test_bind_then_status_reaches_control(self):
        shadow = DeviceShadow("dev-1")
        shadow.mark_bound("alice", time=1.0)
        assert shadow.state is ShadowState.BOUND
        shadow.mark_status(time=2.0)
        assert shadow.state is ShadowState.CONTROL

    def test_offline_from_control_keeps_binding(self):
        shadow = DeviceShadow("dev-1")
        shadow.mark_status(1.0)
        shadow.mark_bound("alice", 2.0)
        shadow.mark_offline(3.0)
        assert shadow.state is ShadowState.BOUND
        assert shadow.bound_user == "alice"
        assert shadow.connection_id is None

    def test_unbind_from_control_keeps_online(self):
        shadow = DeviceShadow("dev-1")
        shadow.mark_status(1.0)
        shadow.mark_bound("alice", 2.0)
        shadow.mark_unbound(3.0)
        assert shadow.state is ShadowState.ONLINE
        assert shadow.bound_user is None

    def test_history_records_only_state_changes(self):
        records = []
        shadow = DeviceShadow("dev-1", on_transition=lambda s, r: records.append(r))
        shadow.mark_status(1.0)
        shadow.mark_status(2.0)  # heartbeat: self-loop, no record
        shadow.mark_bound("alice", 3.0)
        assert len(records) == 2
        assert records[0].before is ShadowState.INITIAL
        assert records[1].after is ShadowState.CONTROL

    def test_last_seen_tracks_heartbeats(self):
        shadow = DeviceShadow("dev-1")
        shadow.mark_status(1.0)
        shadow.mark_status(7.5)
        assert shadow.last_seen == 7.5

    def test_invariant_rejects_bound_state_without_user(self):
        shadow = DeviceShadow("dev-1")
        with pytest.raises(SimulationError):
            shadow.apply(ShadowEvent.BIND_CREATED, 1.0)  # no bound_user set

    def test_transition_record_renders(self):
        records = []
        shadow = DeviceShadow("dev-1", on_transition=lambda s, r: records.append(r))
        shadow.mark_status(1.0)
        text = str(records[0])
        assert "initial" in text and "online" in text

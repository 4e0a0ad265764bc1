"""The device-shadow state machine (Figure 2 of the paper).

A *device shadow* is the cloud's view of one physical device: whether it
is online (authenticated status messages are arriving) and whether it is
bound (a user<->device binding exists).  The shadow does **not** decide
whether a message is legitimate — that is the policy layer's job; the
shadow only records the consequences of accepted events.

The paper numbers six transitions in Figure 2:

* (1) initial -> online  — device authentication (``Status``)
* (6) bound  -> control — device authentication (``Status``)
* (2) initial -> bound   — binding creation before device auth (``Bind``)
* (4) online  -> control — binding creation after device auth (``Bind``)
* (3) bound   -> initial — binding revocation (``Unbind``)
* (5) control -> online  — binding revocation (``Unbind``)

plus the implicit offline transitions when status messages stop
(online -> initial, control -> bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.states import ShadowEvent, ShadowState, from_flags

#: The full transition relation.  Missing (state, event) pairs are
#: self-loops: e.g. a heartbeat while already online keeps the state.
TRANSITIONS: Dict[Tuple[ShadowState, ShadowEvent], ShadowState] = {
    (ShadowState.INITIAL, ShadowEvent.STATUS_RECEIVED): ShadowState.ONLINE,   # (1)
    (ShadowState.BOUND, ShadowEvent.STATUS_RECEIVED): ShadowState.CONTROL,    # (6)
    (ShadowState.INITIAL, ShadowEvent.BIND_CREATED): ShadowState.BOUND,       # (2)
    (ShadowState.ONLINE, ShadowEvent.BIND_CREATED): ShadowState.CONTROL,      # (4)
    (ShadowState.BOUND, ShadowEvent.BIND_REVOKED): ShadowState.INITIAL,       # (3)
    (ShadowState.CONTROL, ShadowEvent.BIND_REVOKED): ShadowState.ONLINE,      # (5)
    (ShadowState.ONLINE, ShadowEvent.STATUS_TIMEOUT): ShadowState.INITIAL,
    (ShadowState.CONTROL, ShadowEvent.STATUS_TIMEOUT): ShadowState.BOUND,
}

#: Figure 2's transition numbering, for rendering the figure.
TRANSITION_LABELS: Dict[Tuple[ShadowState, ShadowEvent], str] = {
    (ShadowState.INITIAL, ShadowEvent.STATUS_RECEIVED): "(1)",
    (ShadowState.INITIAL, ShadowEvent.BIND_CREATED): "(2)",
    (ShadowState.BOUND, ShadowEvent.BIND_REVOKED): "(3)",
    (ShadowState.ONLINE, ShadowEvent.BIND_CREATED): "(4)",
    (ShadowState.CONTROL, ShadowEvent.BIND_REVOKED): "(5)",
    (ShadowState.BOUND, ShadowEvent.STATUS_RECEIVED): "(6)",
}


def next_state(state: ShadowState, event: ShadowEvent) -> ShadowState:
    """Pure transition function; unlisted pairs are self-loops."""
    return TRANSITIONS.get((state, event), state)


@dataclass
class TransitionRecord:
    """One recorded transition, for traces and audit."""

    time: float
    event: ShadowEvent
    before: ShadowState
    after: ShadowState

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[t={self.time:.3f}] {self.before} --{self.event}--> {self.after}"


@dataclass
class DeviceShadow:
    """Mutable cloud-side shadow of one device.

    Besides the Figure 2 state, the shadow carries the bookkeeping the
    cloud needs to relay traffic and to evaluate policy checks: who the
    bound user is, when the device was last seen, and which connection
    ("session") currently represents the device — the latter is what the
    A3-4 attack manipulates on single-connection clouds.
    """

    device_id: str
    state: ShadowState = ShadowState.INITIAL
    bound_user: Optional[str] = None
    last_seen: Optional[float] = None
    connection_id: Optional[str] = None
    reported_model: str = ""
    reported_firmware: str = ""
    #: optional hook fired after each *real* transition (observability);
    #: set by :class:`~repro.cloud.shadows.ShadowStore` when instrumented
    on_transition: Optional[Callable[["DeviceShadow", TransitionRecord], None]] = field(
        default=None, repr=False, compare=False
    )

    # -- event application ---------------------------------------------

    def apply(self, event: ShadowEvent, time: float = 0.0) -> ShadowState:
        """Apply *event* at simulation *time* and return the new state."""
        before = self.state
        after = next_state(before, event)
        self.state = after
        self._check_invariants()
        if after is not before and self.on_transition is not None:
            self.on_transition(self, TransitionRecord(time, event, before, after))
        return after

    def mark_status(self, time: float, connection_id: Optional[str] = None) -> ShadowState:
        """Record an accepted status message (registration or heartbeat)."""
        self.last_seen = time
        if connection_id is not None:
            self.connection_id = connection_id
        return self.apply(ShadowEvent.STATUS_RECEIVED, time)

    def mark_offline(self, time: float) -> ShadowState:
        """Record a status timeout (device considered disconnected)."""
        self.connection_id = None
        return self.apply(ShadowEvent.STATUS_TIMEOUT, time)

    def mark_bound(self, user_id: str, time: float) -> ShadowState:
        """Record binding creation with *user_id*."""
        self.bound_user = user_id
        return self.apply(ShadowEvent.BIND_CREATED, time)

    def mark_unbound(self, time: float) -> ShadowState:
        """Record binding revocation."""
        self.bound_user = None
        return self.apply(ShadowEvent.BIND_REVOKED, time)

    # -- queries ---------------------------------------------------------

    @property
    def is_online(self) -> bool:
        return self.state.is_online

    @property
    def is_bound(self) -> bool:
        return self.state.is_bound

    def _check_invariants(self) -> None:
        """The state flags must agree with the bookkeeping fields."""
        if self.state.is_bound and self.bound_user is None:
            raise SimulationError(
                f"shadow {self.device_id}: state {self.state} but no bound user"
            )
        if not self.state.is_bound and self.bound_user is not None:
            raise SimulationError(
                f"shadow {self.device_id}: state {self.state} but bound to {self.bound_user}"
            )
        if from_flags(self.state.is_online, self.state.is_bound) is not self.state:
            raise SimulationError("flag/state mismatch")  # pragma: no cover - defensive

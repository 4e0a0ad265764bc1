"""Systematic attack-surface exploration: regenerating Table II.

Section V-A derives the taxonomy by "considering that all three types
of messages could be forged and sent to the cloud in all states of a
device shadow".  This module does that mechanically: it walks every
(shadow state x forged primitive) pair through the Figure 2 transition
function, keeps the pairs where a forged message changes the victim's
situation, and labels them with the paper's attack IDs.  The end states
printed in Table II are *computed* from the state machine, not typed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.model import run
from repro.core.states import ShadowEvent, ShadowState


@dataclass(frozen=True)
class SurfacePoint:
    """One (state, forged primitive) probe and its machine-level effect."""

    state: ShadowState
    event: ShadowEvent
    end_state: ShadowState

    @property
    def changes_state(self) -> bool:
        return self.end_state is not self.state


def explore_surface() -> List[SurfacePoint]:
    """Every (state, binding-relevant forged event) pair and its effect.

    Status timeout is excluded: an attacker cannot forge the *absence*
    of messages (they can only cause it indirectly, which the taxonomy
    captures as A3-4).
    """
    forgeable = [
        ShadowEvent.STATUS_RECEIVED,
        ShadowEvent.BIND_CREATED,
        ShadowEvent.BIND_REVOKED,
    ]
    return [
        SurfacePoint(state, event, run([event], start=state))
        for state in ShadowState
        for event in forgeable
    ]


@dataclass(frozen=True)
class TaxonomyRow:
    """One row of Table II."""

    attack_id: str
    label: str
    forged_messages: str
    targeted_states: Tuple[ShadowState, ...]
    end_state: ShadowState
    consequence: str


def _end_state(start: ShadowState, events: Sequence[ShadowEvent]) -> ShadowState:
    """End state computed on the actual machine (keeps the table honest)."""
    return run(events, start=start)


def build_taxonomy() -> List[TaxonomyRow]:
    """Construct Table II, computing every end state from the machine.

    Notes on the user-perspective end states:

    * A1 leaves the machine in *control* — except the attacker now plays
      the device role.
    * A3 variants leave the victim's device effectively *online*
      (authenticated but no longer bound to the victim).
    * A4 variants end in *control* — bound to the attacker.
    """
    control = ShadowState.CONTROL
    initial = ShadowState.INITIAL
    online = ShadowState.ONLINE
    bound = ShadowState.BOUND

    rows = [
        TaxonomyRow(
            "A1", "Data injection and stealing",
            "Status:DevId",
            (control, bound),
            _end_state(bound, [ShadowEvent.STATUS_RECEIVED]),  # -> control
            "The attacker can inject fake device data or steal private user data.",
        ),
        TaxonomyRow(
            "A2", "Binding denial-of-service",
            "Bind:(DevId,UserToken)",
            (initial,),
            _end_state(initial, [ShadowEvent.BIND_CREATED]),  # -> bound
            "The attacker can cause denial-of-service to the user's binding operation.",
        ),
        TaxonomyRow(
            "A3-1", "Device unbinding",
            "Unbind:DevId",
            (control,),
            _end_state(control, [ShadowEvent.BIND_REVOKED]),  # -> online
            "The attacker can disconnect the device from the user.",
        ),
        TaxonomyRow(
            "A3-2", "Device unbinding",
            "Unbind:(DevId,UserToken)",
            (control,),
            _end_state(control, [ShadowEvent.BIND_REVOKED]),
            "The attacker can disconnect the device from the user.",
        ),
        TaxonomyRow(
            "A3-3", "Device unbinding",
            "Bind:(DevId,UserToken)",
            (control,),
            _end_state(control, [ShadowEvent.BIND_REVOKED]),
            "The attacker can disconnect the device from the user.",
        ),
        TaxonomyRow(
            "A3-4", "Device unbinding",
            "Status:DevId",
            (control,),
            _end_state(control, [ShadowEvent.BIND_REVOKED]),
            "The attacker can disconnect the device from the user.",
        ),
        TaxonomyRow(
            "A4-1", "Device hijacking",
            "Bind:(DevId,UserToken)",
            (control,),
            control,
            "The attacker can take absolute control of the device.",
        ),
        TaxonomyRow(
            "A4-2", "Device hijacking",
            "Bind:(DevId,UserToken)",
            (online,),
            _end_state(online, [ShadowEvent.BIND_CREATED]),  # -> control
            "The attacker can take absolute control of the device.",
        ),
        TaxonomyRow(
            "A4-3", "Device hijacking",
            "(1) Unbind:DevId or (DevId,UserToken); (2) Bind:(DevId,UserToken)",
            (control,),
            _end_state(
                control, [ShadowEvent.BIND_REVOKED, ShadowEvent.BIND_CREATED]
            ),  # -> control
            "The attacker can take absolute control of the device.",
        ),
    ]
    return rows


def render_table_ii() -> str:
    """Fixed-width text rendering of Table II."""
    rows = build_taxonomy()
    lines = [
        "TABLE II: The Taxonomy of Attacks in Remote Binding",
        f"{'attack':<6} {'forged message types':<45} {'targeted states':<24} "
        f"{'end state':<10} consequence",
    ]
    for row in rows:
        targets = " and ".join(state.value for state in row.targeted_states)
        lines.append(
            f"{row.attack_id:<6} {row.forged_messages:<45} {targets:<24} "
            f"{row.end_state.value:<10} {row.consequence}"
        )
    return "\n".join(lines)



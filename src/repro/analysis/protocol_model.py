"""Protocol-level model checking: discover attack sequences automatically.

Section VIII: "we would also like to explore the feasibility to
automatically discover remote binding threat without the presence of
physical devices."  This module is that exploration, on top of the
reproduction's design knobs: it builds an *abstract* three-party
transition system for a given :class:`VendorDesign` — tracking only the
security-relevant facts — and searches it exhaustively.

* :func:`find_trace` returns a shortest *witness*: the exact sequence of
  attacker messages reaching a goal (hijack, standing DoS, ...), or
  ``None`` if the goal is unreachable — a proof sketch of safety under
  the abstraction.
* :func:`check_safety` verifies a design against all goals at once.

The abstraction tracks: who the binding belongs to, whether the real
device's session is live, whether the victim can recover, and whether
the attacker's control path is complete.  Attacker moves mirror the
wire messages of ``repro.attacks``; the conformance tests check that a
found witness actually *executes* against the full simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.cloud.policy import BindSchema, BindSender, DeviceAuthMode, VendorDesign

# Who the cloud-side binding belongs to.
NOBODY, VICTIM, ATTACKER = "nobody", "victim", "attacker"


@dataclass(frozen=True)
class AbstractState:
    """The security-relevant facts of the three-party system."""

    #: current binding owner
    owner: str = VICTIM
    #: the real device holds valid credentials and serves its binding
    device_live: bool = True
    #: the attacker's binding (if any) has a working control path
    attacker_controls: bool = False
    #: the victim has a working control path
    victim_controls: bool = True

    def key(self) -> Tuple:
        return (self.owner, self.device_live, self.attacker_controls,
                self.victim_controls)


def _attacker_moves(design: VendorDesign) -> List[str]:
    """Which forged messages this attacker can even construct."""
    moves = []
    craftable_bind = (
        design.bind_schema is BindSchema.ACL
        and (design.bind_sender is BindSender.APP or design.firmware_available)
    )
    if craftable_bind:
        moves.append("bind")
    if design.unbind_supported:
        moves.append("unbind-type1")
        if design.unbind_accepts_bare_dev_id and design.firmware_available:
            moves.append("unbind-type2")
    if design.device_auth is DeviceAuthMode.DEV_ID and design.firmware_available:
        moves.append("forge-status")
    return moves


def _apply(design: VendorDesign, state: AbstractState, move: str) -> Optional[AbstractState]:
    """The cloud's response to one attacker move; None = rejected."""
    if move == "bind":
        if design.ip_match_required:
            return None  # no fresh same-IP registration exists remotely
        if design.bind_requires_online_device and not state.device_live:
            return None
        if state.owner != NOBODY and not design.rebind_replaces_existing:
            return None  # already-bound (or idempotent for the attacker)
        # binding transfers to the attacker
        device_live = state.device_live
        if design.device_auth is DeviceAuthMode.DEV_TOKEN:
            # token rotation: the real device is locked out of the new binding
            device_live = False
        attacker_controls = (
            device_live and not design.post_binding_token
        )
        return AbstractState(
            owner=ATTACKER,
            device_live=device_live,
            attacker_controls=attacker_controls,
            victim_controls=False,
        )
    if move == "unbind-type1":
        if state.owner != VICTIM:
            return None  # nothing of the victim's to revoke
        if design.unbind_checks_bound_user:
            return None  # the attacker's token is not the bound user's
        return replace(state, owner=NOBODY, victim_controls=False)
    if move == "unbind-type2":
        if state.owner != VICTIM:
            return None
        return replace(state, owner=NOBODY, victim_controls=False)
    if move == "forge-status":
        # A3-4: on single-connection clouds the forged session evicts
        # the real device, cutting the victim's control path.
        if not design.single_connection_per_device:
            return None
        if not state.victim_controls:
            return None  # nothing left to disrupt
        return replace(state, victim_controls=False)
    raise ValueError(f"unknown move {move!r}")  # pragma: no cover


#: Goal predicates over abstract states.
GOALS = {
    "hijack": lambda s: s.attacker_controls,
    "disconnect": lambda s: not s.victim_controls,
    "occupy": lambda s: s.owner == ATTACKER,
}


def find_trace(design: VendorDesign, goal: str,
               start: Optional[AbstractState] = None,
               max_depth: int = 6) -> Optional[List[str]]:
    """Shortest attacker message sequence reaching *goal*, or None.

    The default start is the paper's control state: victim bound, device
    live, victim in control.
    """
    try:
        predicate = GOALS[goal]
    except KeyError:
        raise ValueError(f"unknown goal {goal!r}; choose from {sorted(GOALS)}") from None
    state = start or AbstractState()
    if predicate(state):
        return []
    moves = _attacker_moves(design)
    seen = {state.key()}
    frontier = deque([(state, [])])
    while frontier:
        current, path = frontier.popleft()
        if len(path) >= max_depth:
            continue
        for move in moves:
            nxt = _apply(design, current, move)
            if nxt is None or nxt.key() in seen:
                continue
            new_path = path + [move]
            if predicate(nxt):
                return new_path
            seen.add(nxt.key())
            frontier.append((nxt, new_path))
    return None


@dataclass
class SafetyReport:
    """Reachability of every goal for one design."""

    design: str
    traces: Dict[str, Optional[List[str]]]

    def render(self) -> str:
        """Witnesses / safety verdicts, one line per goal."""
        lines = [f"protocol model of {self.design}:"]
        for goal, trace in sorted(self.traces.items()):
            if trace is None:
                lines.append(f"  {goal:<11} UNREACHABLE (safe)")
            else:
                lines.append(f"  {goal:<11} witness: {' -> '.join(trace) or '(already)'}")
        return "\n".join(lines)


def check_safety(design: VendorDesign, max_depth: int = 6) -> SafetyReport:
    """Search every goal from the control state."""
    return SafetyReport(
        design=design.name,
        traces={goal: find_trace(design, goal, max_depth=max_depth) for goal in GOALS},
    )

"""Formal analysis of the Figure 2 state machine.

This module treats the shadow state machine as a finite transition
system and provides the small amount of model checking the reproduction
relies on:

* reachability (every state is reachable from ``initial``);
* path enumeration (the two orders of reaching ``control`` that the
  paper calls out: bind-then-authenticate and authenticate-then-bind);
* exhaustive (state, event) exploration, which the attack-surface
  analysis (Table II) builds on;
* rendering of the machine as text (the reproduction of Figure 2).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.shadow import TRANSITION_LABELS, TRANSITIONS, next_state
from repro.core.states import ShadowEvent, ShadowState

Path = Tuple[ShadowEvent, ...]


def reachable_states(start: ShadowState = ShadowState.INITIAL) -> FrozenSet[ShadowState]:
    """All states reachable from *start* under any event sequence."""
    seen: Set[ShadowState] = {start}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for event in ShadowEvent:
            nxt = next_state(state, event)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def shortest_paths(
    start: ShadowState, goal: ShadowState, max_length: int = 8
) -> List[Path]:
    """All loop-free shortest event sequences from *start* to *goal*.

    Self-loop events are excluded, so a path is a sequence of *effective*
    transitions.  Used to reproduce the paper's observation that the
    control state is reached via exactly two orders.
    """
    if start is goal:
        return [()]
    best: List[Path] = []
    frontier: deque[Tuple[ShadowState, Path, FrozenSet[ShadowState]]] = deque(
        [(start, (), frozenset([start]))]
    )
    found_length = None
    while frontier:
        state, path, visited = frontier.popleft()
        if found_length is not None and len(path) >= found_length:
            break
        if len(path) >= max_length:
            continue
        for event in ShadowEvent:
            nxt = next_state(state, event)
            if nxt is state or nxt in visited:
                continue
            new_path = path + (event,)
            if nxt is goal:
                best.append(new_path)
                found_length = len(new_path)
            else:
                frontier.append((nxt, new_path, visited | {nxt}))
    return best


def run(events: Iterable[ShadowEvent], start: ShadowState = ShadowState.INITIAL) -> ShadowState:
    """Fold an event sequence over the transition function."""
    state = start
    for event in events:
        state = next_state(state, event)
    return state



def effective_transitions() -> Sequence[Tuple[ShadowState, ShadowEvent, ShadowState]]:
    """Only the state-changing transitions (the arrows of Figure 2)."""
    return [
        (state, event, target)
        for (state, event), target in sorted(
            TRANSITIONS.items(), key=lambda item: (item[0][0].value, item[0][1].value)
        )
    ]


def check_paper_properties() -> Dict[str, bool]:
    """Verify the structural properties the paper states about Figure 2.

    Returns a mapping property-name -> bool; the test suite asserts all
    of them, and ``repro fig2`` prints them.
    """
    control_paths = shortest_paths(ShadowState.INITIAL, ShadowState.CONTROL)
    via_bound = (ShadowEvent.BIND_CREATED, ShadowEvent.STATUS_RECEIVED)
    via_online = (ShadowEvent.STATUS_RECEIVED, ShadowEvent.BIND_CREATED)
    return {
        "all-four-states-reachable": reachable_states() == frozenset(ShadowState),
        "control-reachable-in-two-steps": all(len(p) == 2 for p in control_paths),
        "exactly-two-orders-to-control": sorted(
            control_paths, key=lambda p: [e.value for e in p]
        )
        == sorted([via_bound, via_online], key=lambda p: [e.value for e in p]),
        "bind-before-auth-path": run(via_bound) is ShadowState.CONTROL,
        "auth-before-bind-path": run(via_online) is ShadowState.CONTROL,
        "unbind-from-control-keeps-online": run(
            via_online + (ShadowEvent.BIND_REVOKED,)
        )
        is ShadowState.ONLINE,
        "timeout-from-control-keeps-binding": run(
            via_online + (ShadowEvent.STATUS_TIMEOUT,)
        )
        is ShadowState.BOUND,
        "full-reset-returns-to-initial": run(
            via_online + (ShadowEvent.BIND_REVOKED, ShadowEvent.STATUS_TIMEOUT)
        )
        is ShadowState.INITIAL,
    }


def render_figure_2() -> str:
    """Text rendering of Figure 2: the numbered shadow state machine."""
    lines = [
        "Figure 2: State machine of a device shadow",
        "  states: initial(offline,unbound) online(online,unbound)",
        "          bound(offline,bound)     control(online,bound)",
        "",
    ]
    for state, event, target in effective_transitions():
        label = TRANSITION_LABELS.get((state, event), "   ")
        lines.append(f"  {label:>3} {state.value:<8} --{event.value:<16}--> {target.value}")
    lines.append("")
    lines.append("  (1)(6): device authentication   (2)(4): binding creation")
    lines.append("  (3)(5): binding revocation       unlabeled: status timeout")
    return "\n".join(lines)

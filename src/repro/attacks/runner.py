"""Attack runner: fresh deployment + correct targeted state + dispatch.

Table II ties every attack to the shadow state it targets; the runner
prepares exactly that state before launching, in a *fresh* simulated
world per attempt, so attacks never contaminate each other — the paper
likewise reset devices between experiments.

Most attacks target the same ``control`` state, so the first unobserved
attack that stages it for a design and seed captures a
:class:`StagedWorld`, and later ones overlay that image on their fresh
:class:`Deployment` instead of replaying the Figure 1 set-up.  A
restored world is a fresh world: built anew, and equal to a cold one.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.attacks.attacker import RemoteAttacker
from repro.attacks.data_attacks import attack_data_injection_and_stealing
from repro.attacks.dos import attack_binding_dos
from repro.attacks.hijacking import (
    attack_hijack_rebind,
    attack_hijack_unbind_then_bind,
    attack_hijack_window,
)
from repro.attacks.results import AttackReport, Outcome
from repro.attacks.unbinding import (
    attack_unbind_type1,
    attack_unbind_type2,
    attack_unbind_via_rebind,
    attack_unbind_via_status,
)
from repro.cloud.policy import BindSender, VendorDesign
from repro.core.errors import AttackPreconditionError
from repro.net.packet import Packet
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.scenario import Deployment

AttackFn = Callable[[Deployment, RemoteAttacker], AttackReport]

#: attack id -> (implementation, targeted state)
ATTACKS: Dict[str, Tuple[AttackFn, str]] = {
    "A1": (attack_data_injection_and_stealing, "control"),
    "A2": (attack_binding_dos, "initial"),
    "A3-1": (attack_unbind_type2, "control"),
    "A3-2": (attack_unbind_type1, "control"),
    "A3-3": (attack_unbind_via_rebind, "control"),
    "A3-4": (attack_unbind_via_status, "control"),
    "A4-1": (attack_hijack_rebind, "control"),
    "A4-2": (attack_hijack_window, "online"),
    "A4-3": (attack_hijack_unbind_then_bind, "control"),
}

ATTACK_IDS: List[str] = list(ATTACKS)

#: Targeted states more than one attack stages: only these are imaged.
_TARGETS = Counter(state for _, state in ATTACKS.values())
SHARED_STATES = frozenset(state for state, count in _TARGETS.items() if count > 1)

#: How many staged-world images :func:`run_attack` keeps, least recently
#: used first out (a battery needs one at a time per design and seed).
STAGED_WORLD_MEMO_SIZE = 4

#: The victim's smart-plug schedule used as the A1 stealing target
#: (the paper sets exactly such a schedule on device #10).
VICTIM_SCHEDULE = {"on": "19:00", "off": "23:00"}


def prepare_state(deployment: Deployment, targeted_state: str) -> None:
    """Drive the victim's shadow into the attack's targeted state."""
    if targeted_state == "initial":
        return  # factory fresh
    if targeted_state == "online":
        deployment.victim_partial_setup_online_unbound()
        if deployment.shadow_state() != "online":
            raise AttackPreconditionError(
                f"expected online state, got {deployment.shadow_state()}"
            )
        return
    if targeted_state == "control":
        if not deployment.victim_full_setup():
            raise AttackPreconditionError(
                f"victim setup failed on {deployment.design.name}; "
                "cannot stage a control-state attack"
            )
        deployment.victim.app.set_schedule(
            deployment.victim.device.device_id, VICTIM_SCHEDULE
        )
        return
    raise AttackPreconditionError(f"unknown targeted state {targeted_state!r}")


@dataclass(frozen=True)
class StagedWorld:
    """A world right after staging, as plain data (no live object): the
    cloud's campaign state plus the same party overlays as a fleet image."""

    cloud_state: Dict[str, Any]
    env_rng_state: Any
    trace_state: Dict[str, int]
    device_fields: Tuple[Dict[str, Any], ...]
    app_fields: Tuple[Dict[str, Any], ...]
    proxy_log: Tuple[Packet, ...]

    @classmethod
    def capture(cls, deployment: Deployment, attacker: RemoteAttacker) -> "StagedWorld":
        """Image *deployment* and *attacker* right after staging."""
        parties = (deployment.victim, deployment.attacker_party)
        return cls(
            deployment.cloud.capture_campaign_state(),
            deployment.env.rng.getstate(),
            deployment.network.trace_state(),
            tuple(party.device.capture_fields() for party in parties),
            tuple(party.app.capture_fields() for party in parties),
            tuple(attacker.proxy.log),
        )

    def restore(self, deployment: Deployment, attacker: RemoteAttacker) -> None:
        """Overlay this image onto a freshly built world and its attacker."""
        deployment.cloud.restore_campaign_state(self.cloud_state)
        parties = (deployment.victim, deployment.attacker_party)
        for party, device, app in zip(parties, self.device_fields, self.app_fields):
            party.device.restore_fields(device)
            party.app.restore_fields(app)
        deployment.network.restore_trace_state(self.trace_state)
        deployment.env.rng.setstate(self.env_rng_state)
        attacker.proxy.log = list(self.proxy_log)


#: (design, its knob types, seed, targeted state) -> StagedWorld
_staged_worlds: "OrderedDict[tuple, StagedWorld]" = OrderedDict()


def _stage(
    deployment: Deployment, attacker: RemoteAttacker, targeted_state: str,
    obs: Observer,
) -> None:
    """Log the attacker in and stage *targeted_state*, from an image if any.

    Only unobserved runs of a shared state use the memo, so an observed
    trace keeps its ``prepare`` phase.  The key carries the knobs' types
    (``1`` and ``True`` never share).
    """
    key = None
    if obs is NULL_OBSERVER and targeted_state in SHARED_STATES:
        design = deployment.design
        key = (design, tuple(map(type, vars(design).values())),
               deployment.env.rng.seed, targeted_state)
        image = _staged_worlds.get(key)
        if image is not None:
            _staged_worlds.move_to_end(key)
            image.restore(deployment, attacker)
            return
    attacker.login()
    with obs.span("prepare", kind="phase"):
        prepare_state(deployment, targeted_state)
    if key is not None:
        _staged_worlds[key] = StagedWorld.capture(deployment, attacker)
        if len(_staged_worlds) > STAGED_WORLD_MEMO_SIZE:
            _staged_worlds.popitem(last=False)


def run_attack(
    design: VendorDesign,
    attack_id: str,
    seed: int = 0,
    observer: Optional[Observer] = None,
) -> AttackReport:
    """Run one attack against one vendor in a fresh world.

    The world is fresh even when its staged state comes from a memoized
    :class:`StagedWorld`: it is built anew and the image overlaid, so
    the report equals a cold run's.  Passing an
    :class:`~repro.obs.runtime.Observability` as *observer* stages cold,
    traces the attempt as one ``attack:<id>`` scenario span (with
    ``prepare``/``execute`` phases beneath it), profiles the execution
    hot path, and counts the outcome.
    """
    obs = observer if observer is not None else NULL_OBSERVER
    try:
        attack_fn, targeted_state = ATTACKS[attack_id]
    except KeyError:
        raise AttackPreconditionError(f"unknown attack {attack_id!r}") from None
    if attack_id == "A4-2" and design.bind_sender is BindSender.DEVICE:
        # Device-initiated binding is atomic with registration: the
        # "online, unbound" setup window A4-2 exploits never exists.
        report = AttackReport(
            "A4-2", design.name, Outcome.NOT_APPLICABLE,
            "device-initiated binding is atomic with registration: no window",
        )
        obs.on_attack(report)
        return report
    with obs.span(
        f"attack:{attack_id}", kind="scenario",
        vendor=design.name, targeted_state=targeted_state,
    ):
        deployment = Deployment(design, seed=seed, observer=observer)
        attacker = RemoteAttacker(deployment)
        _stage(deployment, attacker, targeted_state, obs)
        with obs.profile("attacks.run_attack"), obs.span("execute", kind="phase"):
            report = attack_fn(deployment, attacker)
    obs.on_attack(report)
    return report


def run_all_attacks(
    design: VendorDesign, seed: int = 0, observer: Optional[Observer] = None
) -> Dict[str, AttackReport]:
    """Run the full A1–A4-3 battery against one vendor."""
    return {
        attack_id: run_attack(design, attack_id, seed, observer=observer)
        for attack_id in ATTACK_IDS
    }

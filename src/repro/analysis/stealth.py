"""Attack detectability: how stealthy is each attack, really?

The paper's abstract promises "stealthy device control"; this module
makes stealthiness measurable.  For a given design, it runs an attack
and then asks: *what could the victim observe?*  Two observation
channels exist:

* the **notification feed** (if the vendor runs one — no studied vendor
  does), which reports binding changes and offline transitions;
* **app symptoms**: the next time the victim opens her app, do her
  requests fail (device gone / not-bound errors)?

An attack is *stealthy* if it succeeds while producing no notification
and no immediate app symptom.  Separately from what the *victim* can
see, each probe also runs the defender-side
:class:`~repro.obs.detect.pipeline.DetectionPipeline` against the
cloud's forensic timeline and reports which rules fired — an attack can
be perfectly stealthy toward the victim yet light up the vendor's
detection dashboard (and vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.attacks.attacker import RemoteAttacker
from repro.attacks.runner import ATTACKS, prepare_state
from repro.cloud.policy import VendorDesign
from repro.core.errors import RequestRejected
from repro.obs.detect import DetectionPipeline
from repro.scenario import Deployment


@dataclass
class DetectionReport:
    """What the victim could observe after one attack."""

    attack_id: str
    vendor: str
    attack_outcome: str
    notifications: List[str] = field(default_factory=list)
    app_symptom: str = "none"     # "none" | "query-fails" | "control-fails"
    #: Defender-side detection: ``rule:severity`` for every alert the
    #: cloud's streaming pipeline raised during the attack.  Deliberately
    #: excluded from :attr:`detectable` / :attr:`stealthy_success`, which
    #: measure what the *victim* could observe — A1 is fully stealthy to
    #: the victim even though the vendor's dashboard lights up.
    cloud_alerts: List[str] = field(default_factory=list)

    @property
    def detectable(self) -> bool:
        return bool(self.notifications) or self.app_symptom != "none"

    @property
    def stealthy_success(self) -> bool:
        return self.attack_outcome == "yes" and not self.detectable

    def line(self) -> str:
        """One table row: victim-side symptoms plus defender-side alerts."""
        notes = ",".join(self.notifications) or "-"
        alerts = ",".join(self.cloud_alerts) or "-"
        return (
            f"{self.attack_id:<5} outcome={self.attack_outcome:<4} "
            f"notifications={notes:<34} symptom={self.app_symptom:<13} "
            f"cloud-alerts={alerts}"
        )


def probe_attack_detectability(design: VendorDesign, attack_id: str,
                               seed: int = 0) -> DetectionReport:
    """Run *attack_id* and measure what the victim could see afterwards."""
    attack_fn, targeted_state = ATTACKS[attack_id]
    deployment = Deployment(design, seed=seed)
    attacker = RemoteAttacker(deployment)
    attacker.login()
    prepare_state(deployment, targeted_state)
    if targeted_state == "control" and design.notifies_user:
        deployment.victim.app.poll_events()  # drain setup-time events

    # Defender-side view: stream the cloud's forensic timeline through
    # the detection rules.  Attaching catches the pipeline up on the
    # setup traffic (detectors need it for per-device baselines), then
    # only alerts raised by the attack itself are reported.
    pipeline = DetectionPipeline()
    pipeline.attach(deployment.cloud)
    baseline = len(pipeline.alerts)

    report_obj = attack_fn(deployment, attacker)
    pipeline.catch_up(deployment.cloud)
    detection = DetectionReport(
        attack_id=attack_id,
        vendor=design.name,
        attack_outcome=report_obj.outcome.value,
        cloud_alerts=[
            f"{alert.rule}:{alert.severity}"
            for alert in pipeline.alerts[baseline:]
        ],
    )
    pipeline.detach()
    if targeted_state != "control":
        # pre-binding attacks have no bound victim to notify yet
        return detection

    deployment.run_heartbeats(2)
    victim = deployment.victim
    if design.notifies_user:
        detection.notifications = [
            event["kind"] for event in victim.app.poll_events()
        ]
    try:
        victim.app.query(victim.device.device_id)
    except RequestRejected:
        detection.app_symptom = "query-fails"
        return detection
    try:
        victim.app.control(victim.device.device_id, "detect-probe")
    except RequestRejected:
        detection.app_symptom = "control-fails"
    return detection


def stealth_survey(design: VendorDesign, seed: int = 0) -> List[DetectionReport]:
    """Detectability of every control-state attack against *design*."""
    return [
        probe_attack_detectability(design, attack_id, seed=seed)
        for attack_id, (_fn, state) in ATTACKS.items()
        if state == "control"
    ]



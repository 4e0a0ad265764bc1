"""Streaming rule-based detectors over the forensic timeline.

Each detector consumes :class:`~repro.obs.detect.timeline.ForensicEvent`
objects in sequence order and emits :class:`~repro.obs.detect.alerts.Alert`
verdicts.  The rules map one-to-one onto the paper's Table II taxonomy:

* :class:`ShadowProbeDetector` (A1) — a device shadow whose data channel
  is suddenly spoken for by a *different* network node than the one that
  established it (forged Status/DeviceFetch data stealing/injection);
* :class:`BindStormDetector` (A2) — one source node binding (or trying
  to bind) many distinct devices: the DoS sweep signature;
* :class:`RogueUnbindDetector` (A3) — an Unbind for a bound device whose
  claimed actor is not the bound owner (bare-DevId resets included);
* :class:`RebindHijackDetector` (A4) — a Bind that displaces an existing
  owner, requested by someone who is not that owner;
* :class:`IdEnumerationDetector` — the A2/A4 precursor: one source
  ramping through many unknown device ids.

Detectors are deterministic (plain counters and insertion-ordered
dicts, no RNG, no wall clock) and read-only — they observe the
timeline, never the cloud.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.obs.detect.alerts import Alert
from repro.obs.detect.timeline import ForensicEvent


class Detector:
    """Base class: a named rule whose ``process(event)`` returns alerts."""

    rule = "detector"


class ShadowProbeDetector(Detector):
    """A1: device-channel traffic from a node that never owned the channel.

    The first *accepted* Status per device pins the shadow's legitimate
    connection.  Any later Status or DeviceFetch for that device from a
    different node is a probe: critical if the cloud accepted it (the
    forgery worked — data stolen or injected), warning if it bounced.
    """

    rule = "shadow-probe"

    def __init__(self) -> None:
        self._channel: Dict[str, str] = {}

    def process(self, event: ForensicEvent) -> List[Alert]:
        """Pin channels on first Status; flag cross-source device traffic."""
        if event.kind not in ("status", "fetch") or not event.device_id:
            return []
        established = self._channel.get(event.device_id)
        if established is None:
            if event.kind == "status" and event.outcome == "ok":
                self._channel[event.device_id] = event.source
            return []
        if event.source == established:
            return []
        severity = "critical" if event.outcome == "ok" else "warning"
        verb = "accepted" if event.outcome == "ok" else "rejected"
        return [
            Alert(
                rule=self.rule,
                severity=severity,
                time=event.time,
                device_id=event.device_id,
                source=event.source,
                reason=(
                    f"{verb} {event.kind} from {event.source}, but the shadow's "
                    f"channel belongs to {established}"
                ),
                evidence=(event.trace_id,) if event.trace_id else (),
            )
        ]


class BindStormDetector(Detector):
    """A2: one source binding many distinct devices (DoS sweep).

    Below the threshold the detector stays silent but remembers the
    evidence traces; the crossing event emits one critical alert citing
    the whole ramp, and every further bind from that source emits a
    warning — so recall over a long storm approaches 1.0 while a
    household legitimately binding two or three devices never fires.
    """

    rule = "bind-storm"

    def __init__(self, threshold: int = 4) -> None:
        self.threshold = threshold
        self._devices: Dict[str, Set[str]] = {}
        self._evidence: Dict[str, List[str]] = {}
        self._fired: Set[str] = set()

    def process(self, event: ForensicEvent) -> List[Alert]:
        """Track per-source bind fan-out; alert at the threshold crossing."""
        if event.kind != "bind" or not event.device_id:
            return []
        devices = self._devices.setdefault(event.source, set())
        devices.add(event.device_id)
        evidence = self._evidence.setdefault(event.source, [])
        if event.trace_id:
            evidence.append(event.trace_id)
        if event.source in self._fired:
            return [
                Alert(
                    rule=self.rule,
                    severity="warning",
                    time=event.time,
                    device_id=event.device_id,
                    source=event.source,
                    reason=f"bind storm from {event.source} continues",
                    evidence=(event.trace_id,) if event.trace_id else (),
                )
            ]
        if len(devices) < self.threshold:
            return []
        self._fired.add(event.source)
        return [
            Alert(
                rule=self.rule,
                severity="critical",
                time=event.time,
                device_id=event.device_id,
                source=event.source,
                reason=(
                    f"{event.source} attempted binds against "
                    f"{len(devices)} distinct devices"
                ),
                evidence=tuple(evidence),
            )
        ]


class RogueUnbindDetector(Detector):
    """A3: an Unbind whose claimed actor is not the bound owner.

    Covers both shapes from Section IV-C: the bare-DevId reset (no
    authenticated actor at all) and a token-bearing request from the
    wrong account.  Critical when the cloud honoured it — the victim
    just lost their device — warning when policy stopped it.
    """

    rule = "rogue-unbind"

    def process(self, event: ForensicEvent) -> List[Alert]:
        """Flag unbinds of a bound device by anyone but the owner."""
        if event.kind != "unbind" or not event.bound_before:
            return []
        if event.actor == event.bound_before:
            return []
        severity = "critical" if event.outcome == "ok" else "warning"
        who = event.actor or "an unauthenticated sender"
        return [
            Alert(
                rule=self.rule,
                severity=severity,
                time=event.time,
                device_id=event.device_id,
                source=event.source,
                reason=(
                    f"unbind of {event.device_id} (owner {event.bound_before}) "
                    f"requested by {who} [{event.outcome}]"
                ),
                evidence=(event.trace_id,) if event.trace_id else (),
            )
        ]


class RebindHijackDetector(Detector):
    """A4: a Bind displacing an existing owner, by someone else.

    On ``rebind_replaces_existing`` designs the cloud *accepts* this —
    the paper's hijack — so an accepted displacement is critical; a
    rejected attempt still leaves a warning in the timeline.
    """

    rule = "rebind-hijack"

    def process(self, event: ForensicEvent) -> List[Alert]:
        """Flag binds over an existing binding by a different actor."""
        if event.kind != "bind" or not event.bound_before:
            return []
        if event.actor == event.bound_before:
            return []
        severity = "critical" if event.outcome == "ok" else "warning"
        took = "displaced" if event.outcome == "ok" else "tried to displace"
        who = event.actor or "an unauthenticated sender"
        return [
            Alert(
                rule=self.rule,
                severity=severity,
                time=event.time,
                device_id=event.device_id,
                source=event.source,
                reason=(
                    f"{who} {took} {event.bound_before}'s binding "
                    f"on {event.device_id}"
                ),
                evidence=(event.trace_id,) if event.trace_id else (),
            )
        ]


class IdEnumerationDetector(Detector):
    """One source probing many *unknown* device ids (enumeration ramp).

    The Section VIII observation that device ids are guessable makes
    this the precursor signature of every remote-binding sweep; the
    rule counts distinct unknown ids per source and fires once at the
    threshold, citing the accumulated traces.
    """

    rule = "id-enumeration"

    #: rejection codes meaning "that device id does not exist here"
    UNKNOWN_CODES = ("unknown-device", "unknown-device-id")

    def __init__(self, threshold: int = 8) -> None:
        self.threshold = threshold
        self._unknown_ids: Dict[str, Set[str]] = {}
        self._evidence: Dict[str, List[str]] = {}
        self._fired: Set[str] = set()

    def process(self, event: ForensicEvent) -> List[Alert]:
        """Count distinct unknown-id rejections per source; fire once."""
        if event.outcome not in self.UNKNOWN_CODES or not event.device_id:
            return []
        ids = self._unknown_ids.setdefault(event.source, set())
        ids.add(event.device_id)
        evidence = self._evidence.setdefault(event.source, [])
        if event.trace_id:
            evidence.append(event.trace_id)
        if event.source in self._fired or len(ids) < self.threshold:
            return []
        self._fired.add(event.source)
        return [
            Alert(
                rule=self.rule,
                severity="warning",
                time=event.time,
                device_id="",
                source=event.source,
                reason=(
                    f"{event.source} probed {len(ids)} distinct unknown "
                    f"device ids"
                ),
                evidence=tuple(evidence),
            )
        ]


def default_detectors() -> List[Detector]:
    """The standard rule set covering the Table II taxonomy."""
    return [
        ShadowProbeDetector(),
        BindStormDetector(),
        RogueUnbindDetector(),
        RebindHijackDetector(),
        IdEnumerationDetector(),
    ]

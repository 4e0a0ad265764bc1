"""The detection pipeline: wiring detectors to a live cloud's timeline.

:class:`DetectionPipeline` is a strictly read-only consumer: it
subscribes to the cloud's :class:`~repro.obs.detect.timeline.ForensicTimeline`
as a sink, streams every live event through the rule set, and collects
the alerts.  It never touches cloud stores, never consumes the
simulation RNG, and never changes a response — attaching a pipeline to
a same-seed world must leave that world bit-identical.

Events are deduplicated by sequence number so the pipeline composes
with chaos plans: a :class:`~repro.chaos.faults.CloudRestart` replays
the journal into the recovered cloud's timeline (same seqs), and
:meth:`catch_up` reads only that store's events past the last seq it
has seen, so it never double-alerts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.detect.alerts import Alert
from repro.obs.detect.detectors import Detector, default_detectors
from repro.obs.detect.timeline import ForensicEvent, ForensicTimeline


class DetectionPipeline:
    """Streams forensic events through detectors; accumulates alerts."""

    def __init__(self, detectors: Optional[List[Detector]] = None) -> None:
        self.detectors = detectors if detectors is not None else default_detectors()
        self.alerts: List[Alert] = []
        self._next_seq = 0
        self._attached: Optional[ForensicTimeline] = None

    def process(self, event: ForensicEvent) -> None:
        """Feed one event to every detector (seq-deduplicated)."""
        if event.seq < self._next_seq:
            return
        self._next_seq = event.seq + 1
        for detector in self.detectors:
            self.alerts.extend(detector.process(event))

    def attach(self, cloud: Any) -> None:
        """Consume *cloud*'s existing timeline, then stream new events."""
        self.detach()
        timeline: ForensicTimeline = cloud.forensics
        for event in timeline.events(self._next_seq):
            self.process(event)
        timeline.add_sink(self.process)
        self._attached = timeline

    def detach(self) -> None:
        """Stop streaming from the currently attached timeline, if any."""
        if self._attached is not None:
            self._attached.remove_sink(self.process)
            self._attached = None

    def catch_up(self, cloud: Any) -> None:
        """Read *cloud*'s events after the last seq this pipeline saw.

        Chaos restarts replace the cloud object (journal recovery builds
        a successor), so the harness calls this after a run to pick up
        events recorded by whatever cloud finished the campaign.
        """
        for event in cloud.forensics.events(self._next_seq):
            self.process(event)

    def summary(self) -> Dict[str, Any]:
        """Picklable alert summary (counts by rule and severity)."""
        by_rule: Dict[str, int] = {}
        by_severity: Dict[str, int] = {}
        for alert in self.alerts:
            by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
            by_severity[alert.severity] = by_severity.get(alert.severity, 0) + 1
        return {
            "alerts": len(self.alerts),
            "by_rule": by_rule,
            "by_severity": by_severity,
        }

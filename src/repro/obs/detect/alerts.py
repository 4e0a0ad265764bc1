"""Typed detector verdicts.

An :class:`Alert` is the unit of detector output: which rule fired, how
bad it is, which device and sending node it implicates, and — the part
that makes it *forensic* rather than anecdotal — the evidence trace ids
tying it back to the exact causal chains in the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Alert severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class Alert:
    """One detector verdict with its evidence chain."""

    rule: str  # detector rule name, e.g. "bind-storm"
    severity: str  # one of SEVERITIES
    time: float  # virtual time the rule fired
    device_id: str  # implicated shadow ("" for source-wide rules)
    source: str  # implicated sending node
    reason: str  # human-readable one-liner
    evidence: Tuple[str, ...] = ()  # trace ids of the triggering events

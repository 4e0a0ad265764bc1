"""Device-ID inference: enumeration and brute-force (Section III-A).

Weak ID schemes let a remote attacker *discover* registered device IDs
by probing a cloud endpoint and distinguishing "unknown device" from
any other answer.  The binding endpoint is such an oracle on every
studied vendor: an unregistered ID yields ``unknown-device`` while a
registered one yields success or a binding conflict.  This is the
mechanism behind the paper's "scalable denial-of-service attacks to the
entire product series" (Section V-C).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.attacks.attacker import RemoteAttacker
from repro.core.messages import BindMessage
from repro.identity.device_ids import DeviceIdScheme


@dataclass
class ProbeStats:
    """Result of an enumeration sweep."""

    attempted: int = 0
    found: List[str] = field(default_factory=list)
    #: virtual seconds consumed at the modelled request rate
    virtual_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return len(self.found) / self.attempted if self.attempted else 0.0


#: Bind answers that say nothing about whether the candidate exists:
#: ``unknown-device`` (it does not), ``rate-limited`` (the countermeasure
#: working) and ``network-error`` (the probe was lost on the way).
MISS_CODES = frozenset({"unknown-device", "rate-limited", "network-error"})


def confirms_device(accepted: bool, code: str) -> bool:
    """Whether a Bind probe's answer confirms a registered device ID.

    Success and every authorization failure confirm it; the
    :data:`MISS_CODES` do not.
    """
    return accepted or code not in MISS_CODES


def probe_device_id(attacker: RemoteAttacker, candidate: str) -> bool:
    """One oracle query: is *candidate* a registered device?

    Sends a Bind for the candidate and judges the answer with
    :func:`confirms_device`.
    """
    attacker.login()
    message = BindMessage(device_id=candidate, user_token=attacker.app.user_token)
    accepted, code, _ = attacker.send(message)
    return confirms_device(accepted, code)


def enumerate_ids(
    attacker: RemoteAttacker,
    scheme: DeviceIdScheme,
    max_probes: int,
    request_rate: float = 3000.0,
    stop_after: Optional[int] = None,
) -> ProbeStats:
    """Sweep the candidate space in order, probing the real cloud.

    ``max_probes`` bounds the sweep (simulations should not iterate
    2^24 times to make a point); ``request_rate`` converts probe count
    into modelled wall-clock time.  Stops early after ``stop_after``
    hits if given.
    """
    stats = ProbeStats()
    for candidate in itertools.islice(scheme.candidates(), max_probes):
        stats.attempted += 1
        if probe_device_id(attacker, candidate):
            stats.found.append(candidate)
            if stop_after is not None and len(stats.found) >= stop_after:
                break
    stats.virtual_seconds = stats.attempted / request_rate
    return stats


def targeted_search(
    attacker: RemoteAttacker,
    candidates: Iterable[str],
    target: str,
    request_rate: float = 3000.0,
) -> ProbeStats:
    """Probe until *target* is confirmed; models a targeted brute force."""
    stats = ProbeStats()
    for candidate in candidates:
        stats.attempted += 1
        if candidate == target and probe_device_id(attacker, candidate):
            stats.found.append(candidate)
            break
    stats.virtual_seconds = stats.attempted / request_rate
    return stats

"""Fault plans: the composable vocabulary of network misbehaviour.

A :class:`FaultPlan` is a pure description — no RNG, no clock — of what
should go wrong in a simulated world: directional :class:`LinkFault`
rules (loss / latency+jitter / duplicate delivery / broadcast
reordering), :class:`Partition` windows severing node groups from each
other, :class:`Brownout` windows during which the cloud answers nobody,
and :class:`CloudRestart` points where the cloud crashes and recovers
from its journal (the PR 3 crash machinery).  The
:class:`~repro.chaos.injector.FaultInjector` turns a plan into actual
delivery decisions with a seeded RNG.

Rules match on *node groups*, not node names: ``"device"``, ``"app"``,
``"attacker"`` and ``"cloud"`` (the prefix before ``:`` in a node name;
the cloud's node is special-cased), with ``"*"`` matching anything.
Every plan scales with one *intensity* knob — probabilities are
multiplied and clamped to [0, 1], latencies stretch linearly, and
partition/brownout windows grow from their start — so one preset yields
a whole fault-intensity curve (``repro chaos run <plan> --intensity N``
prints one point of it).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.errors import ConfigurationError

#: Wildcard group matching any node in a :class:`LinkFault` rule.
ANY_GROUP = "*"


def _clamp01(value: float) -> float:
    """Clamp a probability into [0, 1]."""
    return max(0.0, min(1.0, value))


@dataclass(frozen=True)
class LinkFault:
    """One directional fault rule between two node groups.

    Probabilities are per-request; ``latency`` is a base one-way delay
    in virtual seconds with up to ``jitter`` more drawn uniformly on
    top.  ``duplicate`` re-delivers a successful request once
    (at-least-once semantics); ``reorder`` shuffles broadcast delivery
    order, which changes who hears a broadcast first only on a LAN with
    two or more receivers besides the sender.  The rule is active during
    ``[start, end)``.  A probability outside [0, 1] is a
    :class:`~repro.core.errors.ConfigurationError`.
    """

    src: str = ANY_GROUP
    dst: str = ANY_GROUP
    loss: float = 0.0
    latency: float = 0.0
    jitter: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        for knob in ("loss", "duplicate", "reorder"):
            if not 0.0 <= getattr(self, knob) <= 1.0:
                raise ConfigurationError(
                    f"link fault {knob} probability must be within [0, 1]"
                )

    def active(self, now: float) -> bool:
        """Whether the rule applies at time *now*."""
        return self.start <= now < self.end

    def matches(self, src_group: str, dst_group: str) -> bool:
        """Whether the rule covers traffic from *src_group* to *dst_group*."""
        return (self.src in (ANY_GROUP, src_group)) and (
            self.dst in (ANY_GROUP, dst_group)
        )

    def scaled(self, intensity: float) -> "LinkFault":
        """This rule with every probabilistic knob scaled by *intensity*."""
        return dataclasses.replace(
            self,
            loss=_clamp01(self.loss * intensity),
            latency=self.latency * intensity,
            jitter=self.jitter * intensity,
            duplicate=_clamp01(self.duplicate * intensity),
            reorder=_clamp01(self.reorder * intensity),
        )


@dataclass(frozen=True)
class Partition:
    """A window during which a set of node groups is cut off from the rest.

    Traffic crossing the island boundary (either direction) fails with a
    :class:`~repro.core.errors.NetworkError`; traffic wholly inside or
    wholly outside the island is untouched.
    """

    groups: Tuple[str, ...]
    start: float = 0.0
    end: float = math.inf

    def active(self, now: float) -> bool:
        """Whether the partition is in force at time *now*."""
        return self.start <= now < self.end

    def severs(self, src_group: str, dst_group: str) -> bool:
        """Whether traffic between the two groups crosses the island edge."""
        return (src_group in self.groups) != (dst_group in self.groups)

    def scaled(self, intensity: float) -> "Partition":
        """The partition with its window stretched from ``start``."""
        if math.isinf(self.end):
            return self
        duration = (self.end - self.start) * intensity
        return dataclasses.replace(self, end=self.start + duration)


@dataclass(frozen=True)
class Brownout:
    """A window during which the cloud answers no requests at all."""

    start: float
    end: float

    def active(self, now: float) -> bool:
        """Whether the brownout is in force at time *now*."""
        return self.start <= now < self.end

    def scaled(self, intensity: float) -> "Brownout":
        """The brownout with its window stretched from ``start``."""
        duration = (self.end - self.start) * intensity
        return dataclasses.replace(self, end=self.start + duration)


@dataclass(frozen=True)
class CloudRestart:
    """A scheduled cloud crash + journal recovery at time ``at``.

    :func:`~repro.chaos.campaign.apply_chaos` seeds a journal with the
    cloud's current durable state when the plan carries restarts, so the
    successor recovers through the real
    :func:`~repro.cloud.state.journal.recover_from_journal` path.
    """

    at: float


@dataclass(frozen=True)
class FaultPlan:
    """A named, composable, intensity-scalable set of faults."""

    name: str
    description: str = ""
    link_faults: Tuple[LinkFault, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    brownouts: Tuple[Brownout, ...] = ()
    restarts: Tuple[CloudRestart, ...] = ()

    def scaled(self, intensity: float) -> "FaultPlan":
        """The plan at *intensity* (1.0 = as authored, 0.0 = inert).

        Probabilities scale and clamp; latency stretches linearly;
        partition and brownout windows shrink/grow from their start.
        Restarts survive any positive intensity and vanish at zero.
        """
        if intensity < 0.0:
            raise ConfigurationError("fault intensity must be non-negative")
        if intensity == 1.0:
            return self
        return dataclasses.replace(
            self,
            link_faults=tuple(f.scaled(intensity) for f in self.link_faults),
            partitions=tuple(
                p.scaled(intensity) for p in self.partitions if intensity > 0.0
            ),
            brownouts=tuple(
                b.scaled(intensity) for b in self.brownouts if intensity > 0.0
            ),
            restarts=self.restarts if intensity > 0.0 else (),
        )

    def describe(self) -> str:
        """Multi-line human-readable summary of the plan's rules."""
        lines = [f"fault plan {self.name!r}: {self.description}"]
        for fault in self.link_faults:
            knobs = []
            if fault.loss:
                knobs.append(f"loss={fault.loss:.0%}")
            if fault.latency or fault.jitter:
                knobs.append(f"latency={fault.latency:.3f}s+~{fault.jitter:.3f}s")
            if fault.duplicate:
                knobs.append(f"dup={fault.duplicate:.0%}")
            if fault.reorder:
                knobs.append(f"reorder={fault.reorder:.0%}")
            window = "" if math.isinf(fault.end) else f" t=[{fault.start:g},{fault.end:g})"
            lines.append(
                f"  link {fault.src} -> {fault.dst}: {' '.join(knobs) or 'no-op'}"
                + window
            )
        for part in self.partitions:
            lines.append(
                f"  partition {{{', '.join(part.groups)}}} <-x-> rest "
                f"t=[{part.start:g},{part.end:g})"
            )
        for brownout in self.brownouts:
            lines.append(
                f"  cloud brownout t=[{brownout.start:g},{brownout.end:g})"
            )
        for restart in self.restarts:
            lines.append(f"  cloud crash + journal recovery at t={restart.at:g}")
        return "\n".join(lines)


def _preset_lossy_lan() -> FaultPlan:
    """Flaky last-mile Wi-Fi between the home and the cloud."""
    return FaultPlan(
        name="lossy-lan",
        description="flaky home Wi-Fi: 15% loss device/app->cloud, mild latency",
        link_faults=(
            LinkFault(src="device", dst="cloud", loss=0.15, latency=0.02, jitter=0.05),
            LinkFault(src="app", dst="cloud", loss=0.15, latency=0.02, jitter=0.05),
        ),
    )


def _preset_flaky_wan() -> FaultPlan:
    """A congested uplink: some loss, real latency, duplicate delivery."""
    return FaultPlan(
        name="flaky-wan",
        description="congested uplink: 5% loss to the cloud, 0.2s latency, "
                    "3% duplicate delivery",
        link_faults=(
            LinkFault(dst="cloud", loss=0.05, latency=0.2, jitter=0.15,
                      duplicate=0.03),
        ),
    )


def _preset_jittery_backhaul() -> FaultPlan:
    """High-latency backhaul that trips per-request timeouts."""
    return FaultPlan(
        name="jittery-backhaul",
        description="0.4s base latency with 0.4s jitter to the cloud "
                    "(interacts with client timeouts) and reordered app "
                    "broadcasts (a no-op on a LAN with one receiver)",
        link_faults=(
            LinkFault(dst="cloud", latency=0.4, jitter=0.4),
            LinkFault(src="app", reorder=0.5),
        ),
    )


def _preset_partition_storm() -> FaultPlan:
    """Recurring windows where the whole home loses its uplink."""
    return FaultPlan(
        name="partition-storm",
        description="homes (devices+apps) cut off from the internet during "
                    "t=[20,50) and t=[80,110)",
        partitions=(
            Partition(groups=("device", "app"), start=20.0, end=50.0),
            Partition(groups=("device", "app"), start=80.0, end=110.0),
        ),
    )


def _preset_cloud_brownout() -> FaultPlan:
    """Cloud-side outage windows: nobody gets an answer."""
    return FaultPlan(
        name="cloud-brownout",
        description="cloud answers nobody during t=[30,75); keepalives "
                    "time the shadows out, then recover",
        brownouts=(Brownout(start=30.0, end=75.0),),
    )


def _preset_cloud_restart() -> FaultPlan:
    """A brownout ending in a crash and a journal-replay recovery."""
    return FaultPlan(
        name="cloud-restart",
        description="brownout t=[50,60) ending in a cloud crash at t=60 "
                    "recovered by journal replay",
        brownouts=(Brownout(start=50.0, end=60.0),),
        restarts=(CloudRestart(at=60.0),),
    )


#: The named preset catalog (``repro chaos list`` renders this).
_PRESETS = {
    plan().name: plan
    for plan in (
        _preset_lossy_lan,
        _preset_flaky_wan,
        _preset_jittery_backhaul,
        _preset_partition_storm,
        _preset_cloud_brownout,
        _preset_cloud_restart,
    )
}


def plan_names() -> Tuple[str, ...]:
    """Every preset plan name, sorted."""
    return tuple(sorted(_PRESETS))


def plan_catalog() -> Dict[str, str]:
    """Preset name -> one-line description (for the CLI catalog)."""
    return {name: _PRESETS[name]().description for name in plan_names()}


def plan_from_name(name: str, intensity: float = 1.0) -> FaultPlan:
    """Look up a preset plan and scale it to *intensity*.

    Raises :class:`~repro.core.errors.ConfigurationError` for unknown
    names, listing the catalog so CLI typos are self-explaining.
    """
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault plan {name!r}; available: {', '.join(plan_names())}"
        ) from None
    return factory().scaled(intensity)

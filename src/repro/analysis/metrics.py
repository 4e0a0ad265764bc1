"""Protocol-cost metrics: what the secure designs cost in messages.

The paper argues vendors chose weak designs partly for convenience
(Section IV's assessments).  This module quantifies the convenience
axis: it runs the full Figure 1 setup flow for a design with a packet
tap attached and counts the messages each party had to send.  The
"Setup-cost overhead" section of ``repro report`` tabulates weak vs.
recommended designs: the security upgrade costs only a handful of
extra local messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cloud.policy import VendorDesign
from repro.net.packet import Exchange
from repro.scenario import Deployment


@dataclass
class FlowCost:
    """Message counts for one complete setup flow."""

    design: str
    total: int = 0
    to_cloud: int = 0
    local: int = 0
    by_summary: Dict[str, int] = field(default_factory=dict)
    rejected: int = 0
    setup_succeeded: bool = False

    def row(self) -> str:
        return (
            f"{self.design:<22} {self.total:>6} {self.to_cloud:>9} "
            f"{self.local:>7} {self.rejected:>9}   "
            f"{'ok' if self.setup_succeeded else 'FAILED'}"
        )


def measure_setup_cost(design: VendorDesign, seed: int = 0) -> FlowCost:
    """Count every message of the victim's full setup flow.

    Heartbeat traffic after the flow completes is excluded by stopping
    the tap once the binding exists (steady-state cost is identical
    across designs).
    """
    from repro.core.messages import describe

    deployment = Deployment(design, seed=seed)
    cost = FlowCost(design=design.name)
    counting = {"on": True}

    def tap(exchange: Exchange) -> None:
        if not counting["on"]:
            return
        packet = exchange.request
        if packet.src.startswith("app:attacker") or packet.src.startswith("device:attacker"):
            return
        cost.total += 1
        if packet.dst == deployment.cloud.node_name:
            cost.to_cloud += 1
        else:
            cost.local += 1
        summary = describe(packet.message)
        cost.by_summary[summary] = cost.by_summary.get(summary, 0) + 1
        if not exchange.ok:
            cost.rejected += 1

    deployment.network.add_tap(tap)
    cost.setup_succeeded = deployment.victim_full_setup()
    counting["on"] = False
    return cost


def compare_designs(designs: List[VendorDesign], seed: int = 0) -> List[FlowCost]:
    """Setup cost for several designs, in input order."""
    return [measure_setup_cost(design, seed=seed) for design in designs]


def render_costs(costs: List[FlowCost]) -> str:
    """Fixed-width table over several flow costs."""
    header = (
        f"{'design':<22} {'msgs':>6} {'to cloud':>9} {'local':>7} "
        f"{'rejected':>9}   setup"
    )
    lines = ["Setup-flow message cost per design", header, "-" * len(header)]
    lines.extend(cost.row() for cost in costs)
    return "\n".join(lines)

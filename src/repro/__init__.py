"""repro — reproduction of "Your IoTs Are (Not) Mine: On the Remote
Binding Between IoT Devices and Users" (Chen et al., DSN 2019).

The package simulates the full three-party IoT ecosystem — cloud,
devices, mobile apps, home LANs and a remote attacker — and reproduces
the paper's state-machine model (Figure 2), design decomposition
(Figures 3/4), attack taxonomy (Table II) and ten-vendor evaluation
(Table III).

Quickstart::

    from repro import Deployment, vendor

    world = Deployment(vendor("D-LINK"), seed=7)
    world.victim_full_setup()
    print(world.shadow_state())          # "control"

    from repro.attacks import run_attack
    print(run_attack(vendor("D-LINK"), "A1").outcome)   # Outcome.SUCCESS
"""

from repro.analysis import (
    evaluate_all_vendors,
    evaluate_vendor,
    render_table_ii,
    render_table_iii,
)
from repro.attacks import AttackReport, Outcome, RemoteAttacker, run_all_attacks, run_attack
from repro.cloud import BindSchema, BindSender, CloudService, DeviceAuthMode, VendorDesign
from repro.core import DeviceShadow, MessageKind, ShadowEvent, ShadowState
from repro.obs import Observability
from repro.scenario import Deployment, Party
from repro.secure import SECURE_BASELINES, verify_all_baselines, verify_design
from repro.vendors import PAPER_TABLE_III, STUDIED_VENDORS, vendor

__version__ = "1.0.0"

__all__ = [
    "AttackReport",
    "BindSchema",
    "BindSender",
    "CloudService",
    "Deployment",
    "DeviceAuthMode",
    "DeviceShadow",
    "MessageKind",
    "Observability",
    "Outcome",
    "PAPER_TABLE_III",
    "Party",
    "RemoteAttacker",
    "SECURE_BASELINES",
    "STUDIED_VENDORS",
    "ShadowEvent",
    "ShadowState",
    "VendorDesign",
    "__version__",
    "evaluate_all_vendors",
    "evaluate_vendor",
    "render_table_ii",
    "render_table_iii",
    "run_all_attacks",
    "run_attack",
    "vendor",
    "verify_all_baselines",
    "verify_design",
]

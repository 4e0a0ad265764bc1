"""Attack outcome vocabulary shared by all attack implementations."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Any, Dict


@unique
class Outcome(Enum):
    """How an attack attempt ended (Table III cell vocabulary)."""

    SUCCESS = "yes"          # paper: check mark
    FAILED = "no"            # paper: cross
    UNCONFIRMED = "O"        # paper: unable to confirm (firmware challenges)
    NOT_APPLICABLE = "N.A."  # the design has no such surface / window
    #: the mechanism worked but the result is a *stronger* attack and the
    #: paper classifies it there (A3-3 that yields control is A4-1)
    ESCALATED = "escalated"


@dataclass
class AttackReport:
    """The result of one attack attempt against one deployment."""

    attack_id: str                 # "A1", "A2", "A3-1" ... "A4-3"
    vendor: str
    outcome: Outcome
    reason: str
    evidence: Dict[str, Any] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.outcome is Outcome.SUCCESS

    def line(self) -> str:
        return f"{self.attack_id:<5} {self.vendor:<14} {self.outcome.value:<9} {self.reason}"

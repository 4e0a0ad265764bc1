"""The declarative policy design space, checked differentially.

With authorization expressed as data (:class:`~repro.cloud.pdp.spec.PolicySpec`),
the paper's design space becomes enumerable *as policies*: every
consistent knob combination from
:func:`~repro.analysis.design_space.enumerate_design_space` compiles to
a spec that :func:`~repro.cloud.pdp.engine.compile_design` has validated
(:func:`enumerate_policy_space`), and the same
declarative policy can be judged by two independent oracles —

* the closed-form outcome predictor
  (:func:`~repro.analysis.design_space.predict`), which reasons over the
  policy's knobs attack-by-attack, and
* the Figure-2 abstract model checker
  (:func:`~repro.analysis.protocol_model.check_safety`), which searches
  the shadow state machine for goal-reachability witnesses.

:func:`differential_check` sweeps the space and buckets every
disagreement into a *divergence class* ``(goal, which-oracle-claims-it)``.
The oracles model different abstraction levels on purpose — the model
checker's attacker can compose moves the per-attack predictor scores
separately — so a non-empty diff is a finding about the *abstractions*,
not a bug: each class pinpoints where composing attack steps changes
reachability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.design_space import enumerate_design_space, predict
from repro.analysis.protocol_model import check_safety
from repro.attacks.results import Outcome
from repro.cloud.pdp.engine import compile_design
from repro.cloud.pdp.spec import PolicySpec
from repro.cloud.policy import VendorDesign

#: the model checker's reachability goals, in report order
GOAL_ORDER = ("disconnect", "hijack", "occupy")


@dataclass
class PolicyPoint:
    """One point of the policy design space: knobs + compiled spec."""

    design: VendorDesign
    spec: PolicySpec

    @property
    def rules_digest(self) -> str:
        """Spec identity by *rule content* (name-independent).

        Two knob combinations that compile to the same rule lists are
        the same authorization policy, whatever the grid called them.
        """
        import hashlib
        import json

        data = self.spec.to_data()
        canonical = json.dumps(data["actions"], sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def enumerate_policy_space(limit: Optional[int] = None) -> Iterator[PolicyPoint]:
    """Compile every consistent grid design into a validated spec.

    Each design goes through
    :func:`~repro.cloud.pdp.engine.compile_design`, the routine every
    :class:`~repro.cloud.pdp.engine.PolicyDecisionPoint` compiles with,
    so everything this yields is a well-formed policy the PDP accepts; a
    spec that fails validation raises
    :class:`~repro.cloud.pdp.spec.PolicySpecError` instead of being
    yielded.  The sweep bypasses the PDP's per-process design memo,
    which is sized for a catalog, not for the whole grid.
    """
    for index, design in enumerate(enumerate_design_space()):
        if limit is not None and index >= limit:
            return
        spec, _ = compile_design(design)
        yield PolicyPoint(design=design, spec=spec)


def predicted_reachability(design: VendorDesign) -> Dict[str, bool]:
    """Fold the per-attack prediction into the model checker's goals.

    The mapping mirrors how Table III's columns relate to the abstract
    goals: *hijack* is any live-control takeover (A4, or an A3-3 that
    escalated into one), *occupy* is any path that leaves the attacker
    as the binding's owner, and *disconnect* is any A3 (an escalated
    A3-3 also disconnected the victim on the way).
    """
    outcomes = predict(design)

    def hit(attack_id: str) -> bool:
        return outcomes[attack_id] in (Outcome.SUCCESS, Outcome.ESCALATED)

    hijack = any(hit(a) for a in ("A4-1", "A4-2", "A4-3")) or (
        outcomes["A3-3"] is Outcome.ESCALATED
    )
    occupy = any(hit(a) for a in ("A2", "A3-3", "A4-1", "A4-2", "A4-3"))
    disconnect = any(hit(a) for a in ("A3-1", "A3-2", "A3-3", "A3-4"))
    return {"hijack": hijack, "occupy": occupy, "disconnect": disconnect}


@dataclass
class Divergence:
    """One policy the two oracles disagree on, for one goal."""

    design: str
    goal: str
    side: str  # "predict-only" | "model-only"
    witness: Optional[List[str]]  # the checker's move trace, when it has one

    def line(self) -> str:
        """One-line human rendering of this divergence."""
        claim = ("predictor claims it, model finds no trace"
                 if self.side == "predict-only"
                 else "model finds a trace the predictor misses")
        suffix = ""
        if self.witness is not None:
            suffix = f"  [{' -> '.join(self.witness) or '(already)'}]"
        return f"{self.design}: {self.goal} — {claim}{suffix}"


@dataclass
class DifferentialReport:
    """Aggregate result of a policy-space differential sweep."""

    policies: int = 0
    distinct_specs: int = 0
    agreements: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: (goal, side) -> count over the whole sweep
    classes: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def to_data(self) -> dict:
        """Plain data for ``--format json``."""
        return {
            "policies": self.policies,
            "distinct_specs": self.distinct_specs,
            "agreements": self.agreements,
            "divergence_classes": {
                f"{goal}/{side}": count
                for (goal, side), count in sorted(self.classes.items())
            },
            "divergences": [
                {
                    "design": d.design,
                    "goal": d.goal,
                    "side": d.side,
                    "witness": d.witness,
                }
                for d in self.divergences
            ],
        }

    def render(self, examples: int = 3) -> str:
        """Text report: totals, divergence classes, example witnesses."""
        lines = [
            f"policy design space: {self.policies} consistent policies, "
            f"{self.distinct_specs} distinct rule sets",
            f"  oracle agreement: {self.agreements}/{self.policies} policies "
            f"({self.agreements / self.policies:.1%})" if self.policies else "",
            "  divergence classes (goal / which oracle claims reachability):",
        ]
        if not self.classes:
            lines.append("    (none — the oracles agree everywhere)")
        for (goal, side), count in sorted(self.classes.items()):
            lines.append(f"    {goal:<11} {side:<13} {count} design(s)")
            shown = [d for d in self.divergences
                     if d.goal == goal and d.side == side][:examples]
            for divergence in shown:
                lines.append(f"      e.g. {divergence.line()}")
        return "\n".join(line for line in lines if line)


def differential_check(limit: Optional[int] = None,
                       max_depth: int = 6) -> DifferentialReport:
    """Sweep the policy space, diffing predictor vs model checker."""
    report = DifferentialReport()
    digests = set()
    for point in enumerate_policy_space(limit=limit):
        report.policies += 1
        digests.add(point.rules_digest)
        predicted = predicted_reachability(point.design)
        checked = check_safety(point.design, max_depth=max_depth)
        disagreed = False
        for goal in GOAL_ORDER:
            trace = checked.traces[goal]
            model_reachable = trace is not None
            if predicted[goal] == model_reachable:
                continue
            disagreed = True
            side = "predict-only" if predicted[goal] else "model-only"
            report.classes[(goal, side)] = report.classes.get((goal, side), 0) + 1
            report.divergences.append(Divergence(
                design=point.design.name,
                goal=goal,
                side=side,
                witness=trace,
            ))
        if not disagreed:
            report.agreements += 1
    report.distinct_specs = len(digests)
    return report

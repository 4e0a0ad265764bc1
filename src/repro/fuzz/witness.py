"""Search, shrink, and package counterexamples as witnesses.

A *witness* is one minimized failing sequence plus everything needed to
replay it deterministically and to check that it still fails for the
same reason: the design (or design pair, for differential findings),
the world seed, the normalized trace, and the oracle finding.

Shrinking is hypothesis's own: :func:`hypothesis.find` returns the
*minimal* example satisfying the predicate, so every witness is already
as short and as boring as the vocabulary ordering allows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.cloud.policy import VendorDesign
from repro.fuzz.executor import FuzzReport, execute_sequence
from repro.fuzz.oracles import differential_divergence, differential_groups
from repro.fuzz.strategies import require_hypothesis, sequence_strategy

#: serialization format version for corpus files
SCHEMA_VERSION = 1


@dataclass
class Witness:
    """One minimized, replayable counterexample."""

    name: str
    kind: str                      # "safety" | "model" | "differential"
    designs: List[str]             # one design, or the diverging pair
    seed: int
    sequence: List[str]
    finding: Dict[str, Any]
    finding_keys: List[List[str]] = field(default_factory=list)
    trace: List[Dict[str, Any]] = field(default_factory=list)
    found_by: str = ""

    @property
    def design(self) -> str:
        return self.designs[0]

    def to_data(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "kind": self.kind,
            "designs": list(self.designs),
            "seed": self.seed,
            "sequence": list(self.sequence),
            "finding": dict(self.finding),
            "finding_keys": [list(key) for key in self.finding_keys],
            "trace": [dict(outcome) for outcome in self.trace],
            "found_by": self.found_by,
        }

    @classmethod
    def from_data(cls, data: Dict[str, Any]) -> "Witness":
        """Inverse of :meth:`to_data`; rejects unknown schema versions
        and missing or malformed fields with :class:`ConfigurationError`."""
        from repro.core.errors import ConfigurationError

        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ConfigurationError(
                f"witness {data.get('name', '?')!r}: schema {schema!r} "
                f"(this build reads schema {SCHEMA_VERSION})"
            )
        try:
            return cls(
                name=data["name"],
                kind=data["kind"],
                designs=list(data["designs"]),
                seed=int(data["seed"]),
                sequence=list(data["sequence"]),
                finding=dict(data["finding"]),
                finding_keys=[list(k) for k in data.get("finding_keys", [])],
                trace=[dict(o) for o in data.get("trace", [])],
                found_by=data.get("found_by", ""),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"witness {data.get('name', '?')!r}: missing field {exc}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"witness {data.get('name', '?')!r}: malformed field: {exc}"
            ) from None


def _design_rng(seed: int, design_name: str) -> Random:
    """Per-design deterministic generator stream."""
    return Random(seed ^ crc32(design_name.encode("utf-8")))


def _settings(max_examples: int):
    from hypothesis import HealthCheck, settings

    return settings(
        database=None,
        deadline=None,
        max_examples=max_examples,
        suppress_health_check=list(HealthCheck),
    )


def witness_from_report(
    report: FuzzReport,
    new_keys: Sequence[Tuple[str, str, str]],
    found_by: str = "",
) -> Witness:
    """Package a minimal failing report as a witness for its first new key."""
    oracle, kind, step_name = new_keys[0]
    finding = next(
        f for f in report.findings()
        if (f["oracle"], f["kind"], f.get("step_name", "")) == new_keys[0]
    )
    name = "-".join(
        part for part in (
            report.design.lower().replace(" ", "-"),
            kind,
            step_name,
        ) if part
    )
    return Witness(
        name=name,
        kind=oracle,
        designs=[report.design],
        seed=report.seed,
        sequence=list(report.sequence),
        finding=finding,
        finding_keys=[list(k) for k in report.finding_keys()],
        trace=report.trace,
        found_by=found_by,
    )


def fuzz_design(
    design: VendorDesign,
    seed: int = 0,
    max_examples: int = 150,
    max_size: int = 12,
    deadline: Optional[float] = None,
    known: Optional[Iterable[Tuple[str, str, str]]] = None,
    found_by: str = "",
) -> List[Witness]:
    """Find one minimal witness per distinct finding key on *design*.

    Repeatedly asks hypothesis for the minimal sequence producing a
    finding key not yet in *known*; each round either yields one new
    witness (and adds its keys to the exclusion set) or proves the
    design dry at this budget.  *deadline* is a ``time.monotonic()``
    timestamp acting as a wall-clock safety net — determinism comes
    from the seed and ``max_examples``, which bound each round.
    """
    require_hypothesis()
    from hypothesis import find
    from hypothesis.errors import NoSuchExample

    seen = set(tuple(k) for k in (known or ()))
    rng = _design_rng(seed, design.name)
    witnesses: List[Witness] = []
    while deadline is None or time.monotonic() < deadline:
        def trips_new_oracle(sequence: List[str]) -> bool:
            report = execute_sequence(design, sequence, seed=seed)
            return any(tuple(k) not in seen for k in report.finding_keys())

        try:
            minimal = find(
                sequence_strategy(max_size=max_size),
                trips_new_oracle,
                settings=_settings(max_examples),
                random=rng,
            )
        except NoSuchExample:
            break
        report = execute_sequence(design, minimal, seed=seed)
        new_keys = [
            tuple(k) for k in report.finding_keys() if tuple(k) not in seen
        ]
        if not new_keys:  # pragma: no cover - find() guarantees one
            break
        seen.update(new_keys)
        witnesses.append(witness_from_report(report, new_keys, found_by=found_by))
    return witnesses


def fuzz_differential(
    designs: Sequence[VendorDesign],
    seed: int = 0,
    max_examples: int = 80,
    max_size: int = 10,
    deadline: Optional[float] = None,
    found_by: str = "",
) -> List[Witness]:
    """Hunt trace divergences inside each spec-equivalence group."""
    require_hypothesis()
    from hypothesis import find
    from hypothesis.errors import NoSuchExample

    witnesses: List[Witness] = []
    for group in differential_groups(designs):
        if deadline is not None and time.monotonic() >= deadline:
            break
        group_name = "+".join(d.name for d in group)
        rng = _design_rng(seed, group_name)

        def diverges(sequence: List[str]) -> bool:
            return differential_divergence(group, sequence, seed=seed) is not None

        try:
            minimal = find(
                sequence_strategy(max_size=max_size),
                diverges,
                settings=_settings(max_examples),
                random=rng,
            )
        except NoSuchExample:
            continue
        finding = differential_divergence(group, minimal, seed=seed)
        assert finding is not None
        pair = finding["designs"]
        witnesses.append(Witness(
            name="-vs-".join(p.lower().replace(" ", "-") for p in pair)
                 + f"-{finding['step_name']}",
            kind="differential",
            designs=list(pair),
            seed=seed,
            sequence=list(minimal),
            finding=finding,
            finding_keys=[["differential", finding["kind"],
                           finding["step_name"]]],
            trace=[],
            found_by=found_by,
        ))
    return witnesses

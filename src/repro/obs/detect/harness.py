"""Evaluation harness: score the detectors against labelled campaigns.

Maps the paper's Table II attack classes onto the fleet campaigns that
realize them (A1 shadow-probe, A2 binding-dos, A3 mass-unbind, A4
mass-rebind), runs each through the sharded parallel engine with a
read-only :class:`~repro.obs.detect.pipeline.DetectionPipeline`
attached, and reports precision / recall / time-to-detect per attack —
optionally under a chaos plan, where the false-positive rate under
brownouts and partitions is the interesting number.

Imported by the CLI and benchmarks only — never from
``repro.obs.detect.__init__`` (this module imports the parallel engine,
which imports the pipeline; importing it from the package would close
the cycle).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, Optional, Sequence

from repro.chaos.campaign import ChaosSpec
from repro.cloud.policy import VendorDesign
from repro.core.errors import ConfigurationError
from repro.obs.detect.score import render_score
from repro.parallel.engine import ShardedCampaignResult, run_campaign
from repro.parallel.pool import WorkerPool
from repro.parallel.protocol import WorldImageCache

#: Table II attack class -> the fleet campaign that realizes it.
ATTACK_CAMPAIGNS = {
    "A1": "shadow-probe",
    "A2": "binding-dos",
    "A3": "mass-unbind",
    "A4": "mass-rebind",
}


def run_detection(
    design: VendorDesign,
    attacks: Sequence[str] = ("A1", "A2", "A3", "A4"),
    households: int = 12,
    max_probes: int = 32,
    workers: int = 1,
    seed: int = 0,
    shards: Optional[int] = None,
    run_seconds: float = 12.0,
    chaos: Optional[ChaosSpec] = None,
    trace_messages: bool = False,
) -> Dict[str, ShardedCampaignResult]:
    """Run each attack class's campaign with detection attached.

    Returns ``{attack_id: ShardedCampaignResult}`` in the order given;
    each result's ``.detection`` property is the merged score.

    With ``workers > 1`` every attack's campaign runs through one
    :class:`~repro.parallel.pool.WorkerPool`, so the A1/A3/A4
    deployed-fleet attacks share one warm-started world per shard
    instead of rebuilding it three times (A2 always builds cold — it
    attacks factory-fresh fleets).  With ``workers=1`` the same
    amortization happens in-process through one shared image cache.
    Results are bit-identical either way.
    """
    runs: Dict[str, ShardedCampaignResult] = {}
    campaign_kwargs = dict(
        households=households,
        max_probes=max_probes,
        workers=workers,
        seed=seed,
        shards=shards,
        run_seconds=run_seconds,
        trace_messages=trace_messages,
        chaos=chaos,
        detect=True,
    )
    for attack_id in attacks:
        if attack_id not in ATTACK_CAMPAIGNS:
            raise ConfigurationError(
                f"unknown attack class {attack_id!r}; "
                f"expected one of {sorted(ATTACK_CAMPAIGNS)}"
            )
    with WorkerPool(workers=workers) if workers > 1 else nullcontext() as worker_pool:
        image_cache = WorldImageCache() if worker_pool is None else None
        for attack_id in attacks:
            runs[attack_id] = run_campaign(
                design,
                campaign=ATTACK_CAMPAIGNS[attack_id],
                worker_pool=worker_pool,
                image_cache=image_cache,
                **campaign_kwargs,
            )
    return runs


def detection_matrix(
    runs: Dict[str, ShardedCampaignResult]
) -> Dict[str, Dict[str, Any]]:
    """The JSON-able per-attack score matrix benchmarks consume."""
    matrix: Dict[str, Dict[str, Any]] = {}
    for attack_id, result in runs.items():
        score = result.detection or {}
        matrix[attack_id] = {
            "campaign": result.campaign,
            "vendor": result.vendor,
            "households": result.report.households,
            "victims_denied": result.report.victims_denied,
            "precision": score.get("precision"),
            "recall": score.get("recall"),
            "false_positive_rate": score.get("false_positive_rate"),
            "time_to_detect": score.get("time_to_detect"),
            "alerts": score.get("alerts"),
            "alerts_by_rule": score.get("alerts_by_rule", {}),
            "malicious_events": score.get("malicious_events"),
            "events": score.get("events"),
        }
    return matrix


def render_detection(
    design: VendorDesign,
    runs: Dict[str, ShardedCampaignResult],
    chaos: Optional[ChaosSpec] = None,
) -> str:
    """Multi-line per-attack detection report for the CLI."""
    lines = [f"detection evaluation against {design.name}"]
    if chaos is not None:
        lines[0] += (
            f" under chaos plan {chaos.plan!r} (intensity {chaos.intensity:g})"
        )
    for attack_id, result in runs.items():
        campaign = result.campaign
        lines.append("")
        lines.append(
            f"{attack_id} ({campaign}): "
            f"{result.report.victims_denied}/{result.report.households} "
            f"victims, {result.report.ids_probed} probes"
        )
        score = result.detection
        if score is None:
            lines.append("  detection was not enabled for this run")
        else:
            lines.append(render_score(score))
    return "\n".join(lines)

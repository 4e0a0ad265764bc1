"""SLO curves: per-design availability, calm vs. chaos.

Runs every studied vendor design plus the secure baselines through the
normal fleet lifecycle with full observability, once calm and once per
``cloud-brownout`` intensity, and emits
``benchmarks/output/BENCH_slo.json`` with per-design request counts,
availability and error-budget consumption against the default SLO,
burn-rate alerts, and per-fault-window breach/degraded/unaffected
verdicts at each chaos intensity.

Every field is virtual-time and seeded, so two runs write byte-identical
JSON.  Request timings are measured by ``benchmarks/perf`` alone.

Set ``BENCH_QUICK=1`` to shrink fleets and the virtual horizon for CI
smoke runs.
"""

import json
import os

from repro.chaos import ChaosSpec, apply_chaos
from repro.chaos.faults import plan_from_name
from repro.fleet import FleetDeployment
from repro.obs import Observability
from repro.obs.slo import SLOSpec, evaluate_availability, score_fault_windows
from repro.secure import SECURE_BASELINES
from repro.vendors import STUDIED_VENDORS

from conftest import OUTPUT_DIR, emit

SEED = 7
QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
HOUSEHOLDS = 3 if QUICK else 8
SECONDS = 60.0 if QUICK else 120.0
PLAN = "cloud-brownout"
#: The chaos axis: the brownout window stretches with intensity, so the
#: curve sweeps from a short outage to one covering most of the run.
INTENSITIES = (0.5, 1.0, 2.0)
SPEC = SLOSpec()
#: All thirteen designs: the ten studied vendors + three baselines.
DESIGNS = tuple(STUDIED_VENDORS) + tuple(SECURE_BASELINES)


def _run_design(design, intensity):
    """One (design, scenario) row; ``intensity=None`` means calm."""
    obs = Observability(trace_messages=False)
    fleet = FleetDeployment(
        design, households=HOUSEHOLDS, seed=SEED, observer=obs
    )
    plan = None
    if intensity is not None:
        apply_chaos(fleet, ChaosSpec(plan=PLAN, intensity=intensity))
        plan = plan_from_name(PLAN, intensity)
    fleet.setup_all()
    fleet.run(SECONDS)
    availability = evaluate_availability(obs.slo, SPEC)
    row = {
        "design": design.name,
        "scenario": "calm" if intensity is None else f"{PLAN}@{intensity:g}",
        "intensity": intensity,
        "requests": obs.red.total_requests(),
        "availability": round(availability["achieved"], 6),
        "budget_consumed": round(availability["budget_consumed"], 4),
        "alerted": any(
            w["alert_at"] is not None for w in availability["windows"]
        ),
    }
    if plan is not None:
        row["fault_verdicts"] = [
            {"kind": v["kind"], "start": v["start"], "end": v["end"],
             "bad": v["bad"], "verdict": v["verdict"]}
            for v in score_fault_windows(obs.slo, SPEC, plan)
        ]
    return row


def test_slo_curves(benchmark):
    """The headline artifact: per-design SLO curves -> BENCH_slo.json."""
    rows = benchmark.pedantic(
        lambda: [
            _run_design(design, intensity)
            for design in DESIGNS
            for intensity in (None,) + INTENSITIES
        ],
        rounds=1, iterations=1,
    )

    payload = {
        "config": {
            "seed": SEED,
            "households": HOUSEHOLDS,
            "seconds": SECONDS,
            "plan": PLAN,
            "intensities": list(INTENSITIES),
            "objective": SPEC.objective,
            "latency_threshold_us": SPEC.latency_us,
            "quick": QUICK,
        },
        "curves": rows,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_slo.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    calm = [r for r in rows if r["intensity"] is None]
    worst = [r for r in rows if r["intensity"] == INTENSITIES[-1]]
    breached = sum(
        1 for r in worst
        if any(v["verdict"] == "breach" for v in r.get("fault_verdicts", ()))
    )
    emit(
        "slo",
        f"{len(DESIGNS)} designs x (calm + {PLAN} @ "
        f"{', '.join(f'{i:g}' for i in INTENSITIES)}): "
        f"availability {min(r['availability'] for r in calm):.2%} min calm "
        f"vs {min(r['availability'] for r in worst):.2%} min at intensity "
        f"{INTENSITIES[-1]:g}; {breached}/{len(worst)} designs breach; "
        f"BENCH_slo.json written",
    )
    # Coverage floor: all designs, calm + >=3 chaos intensities each.
    assert len(calm) == len(DESIGNS) == 13
    assert len(INTENSITIES) >= 3
    assert all(r["requests"] > 0 for r in calm)
    assert all(r["availability"] == 1.0 for r in calm)

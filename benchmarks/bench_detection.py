"""Detection quality: precision/recall/time-to-detect across Table II.

Runs every attack class's fleet campaign (A1 shadow-probe, A2
binding-dos, A3 mass-unbind, A4 mass-rebind) with the streaming
detection pipeline attached, per vendor, and emits
``benchmarks/output/BENCH_detect.json`` with:

* the per-vendor x per-attack score matrix (precision, recall,
  false-positive rate, time-to-detect, alerts by rule),
* the false-positive-rate curve under the ``flaky-wan`` chaos plan
  across an intensity sweep (does a degraded network confuse the
  rules?),
* a shard bit-identity check (detection scores merge identically at
  ``--workers 1`` and ``--workers 2``), and
* a read-only check (a same-seed campaign produces the identical
  report and state counts with detection on or off).

Notable: A2 precision sits below 1.0 *by construction* — after the
attacker squats every binding, the victims' own setup Binds displace
the attacker's records and look like hijacks.  The bench asserts the
residue instead of asserting it away.

Set ``BENCH_QUICK=1`` to shrink fleets and the probe budget for CI
smoke runs.
"""

import json
import os

from repro.chaos import ChaosSpec
from repro.obs.detect.harness import ATTACK_CAMPAIGNS, detection_matrix, run_detection
from repro.parallel import run_campaign
from repro.vendors import vendor

from conftest import OUTPUT_DIR, emit

SEED = 3
QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
#: Serial-number vendors keep the sweep budget meaningful (the probe
#: order actually reaches fleet devices); E-Link Smart additionally has
#: rebind-replaces, so A4 *lands* there rather than bouncing.
VENDORS = ("OZWI", "E-Link Smart") if QUICK else ("OZWI", "E-Link Smart", "Orvibo")
HOUSEHOLDS = 4 if QUICK else 12
PROBES = 8 if QUICK else 32
PLAN = "flaky-wan"
INTENSITIES = (0.0, 2.0, 8.0) if QUICK else (0.0, 1.0, 2.0, 4.0, 8.0)


def _vendor_matrix():
    """Per-vendor x A1-A4 detection scores (the headline table)."""
    matrix = {}
    for name in VENDORS:
        runs = run_detection(
            vendor(name),
            households=HOUSEHOLDS,
            max_probes=PROBES,
            workers=1,
            seed=SEED,
            run_seconds=6.0,
        )
        matrix[name] = detection_matrix(runs)
    return matrix


def _fp_under_chaos_curve():
    """False-positive rate vs fault intensity: noise must not alert."""
    curve = []
    for intensity in INTENSITIES:
        result = run_campaign(
            vendor("OZWI"),
            campaign="mass-unbind",
            households=HOUSEHOLDS,
            max_probes=PROBES,
            workers=1,
            seed=SEED,
            run_seconds=6.0,
            chaos=ChaosSpec(plan=PLAN, intensity=intensity),
            detect=True,
        )
        score = result.detection
        curve.append({
            "intensity": intensity,
            "false_positive_rate": score["false_positive_rate"],
            "precision": score["precision"],
            "recall": score["recall"],
            "alerts": score["alerts"],
            "events": score["events"],
        })
    return curve


def _shard_identity():
    """Detection scores must merge bit-identically across worker counts."""
    def run(workers):
        result = run_campaign(
            vendor("OZWI"),
            campaign="mass-rebind",
            households=HOUSEHOLDS * 2,
            max_probes=PROBES * 2,
            workers=workers,
            shards=2,
            seed=11,
            run_seconds=6.0,
            detect=True,
        )
        return json.dumps(result.detection, sort_keys=True)

    serial, parallel = run(1), run(2)
    return {"identical": serial == parallel, "score": json.loads(serial)}


def _read_only_check():
    """Same seed, detection on vs off: the world must not notice."""
    def run(detect):
        result = run_campaign(
            vendor("OZWI"),
            campaign="binding-dos",
            households=HOUSEHOLDS,
            max_probes=PROBES,
            workers=1,
            seed=SEED,
            run_seconds=6.0,
            detect=detect,
        )
        return {
            "report": result.to_dict()["denial_rate"],
            "households": result.report.households,
            "ids_hit": result.report.ids_hit,
            "state_counts": result.state_counts,
            "audit_entries": result.audit_entries_total,
        }

    plain, detected = run(False), run(True)
    return {"identical": plain == detected}


def test_detection_matrix(benchmark):
    """The headline artifact: detection scores -> BENCH_detect.json."""
    matrix = benchmark.pedantic(_vendor_matrix, rounds=1, iterations=1)
    fp_curve = _fp_under_chaos_curve()
    shard = _shard_identity()
    read_only = _read_only_check()

    payload = {
        "config": {
            "vendors": list(VENDORS),
            "attacks": dict(ATTACK_CAMPAIGNS),
            "seed": SEED,
            "households": HOUSEHOLDS,
            "max_probes": PROBES,
            "chaos_plan": PLAN,
            "intensities": list(INTENSITIES),
            "quick": QUICK,
        },
        "matrix": matrix,
        "fp_under_chaos": fp_curve,
        "shard_identity": shard["identical"],
        "read_only": read_only["identical"],
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_detect.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    ozwi = matrix["OZWI"]
    emit(
        "detection",
        f"{len(VENDORS)} vendors x {len(ozwi)} attack classes, "
        f"{HOUSEHOLDS} households, {PROBES} probes: "
        f"OZWI precision A1={ozwi['A1']['precision']:.2f} "
        f"A2={ozwi['A2']['precision']:.2f} A3={ozwi['A3']['precision']:.2f} "
        f"A4={ozwi['A4']['precision']:.2f}; recall "
        f"A1={ozwi['A1']['recall']:.2f} A2={ozwi['A2']['recall']:.2f} "
        f"A3={ozwi['A3']['recall']:.2f} A4={ozwi['A4']['recall']:.2f}; "
        f"FP rate under {PLAN} x{len(INTENSITIES)} intensities: "
        f"{[row['false_positive_rate'] for row in fp_curve]}; "
        f"shard-identical={shard['identical']} "
        f"read-only={read_only['identical']}; BENCH_detect.json written",
    )

    # Acceptance floor: every attack class is scored for every vendor,
    # the chaos curve covers >=3 intensities, shard merges are
    # bit-identical, and detection is read-only.
    for name in VENDORS:
        assert set(matrix[name]) == set(ATTACK_CAMPAIGNS), name
    assert len(fp_curve) >= 3
    assert shard["identical"]
    assert read_only["identical"]
    # The forged-traffic sweeps are cleanly attributed on OZWI: no
    # benign event is ever blamed for A1/A3/A4 and most malicious
    # probes are covered by alert evidence.
    for attack_id in ("A1", "A3", "A4"):
        assert ozwi[attack_id]["precision"] == 1.0, attack_id
        assert ozwi[attack_id]["recall"] >= 0.5, attack_id
    # A2's residue: total recall, imperfect precision (victim setup
    # binds displacing the attacker's squatted records look like
    # hijacks -- evidence the attack happened, not a detector bug).
    assert ozwi["A2"]["recall"] == 1.0
    assert 0.0 < ozwi["A2"]["precision"] <= 1.0

"""Chaos resilience curves: attack success and binding liveness vs faults.

Runs the mass-unbind campaign under the ``flaky-wan`` fault plan (which
degrades *everyone's* path to the cloud, the attacker's probes
included) across a fault-intensity curve — with and without client
resilience — and a ``cloud-brownout`` degradation/recovery trace, then
emits ``benchmarks/output/BENCH_chaos.json`` with:

* attack success (denial rate) and binding liveness per intensity —
  the two move in opposite directions as the network degrades: lost
  probes blunt the attack while lost keepalives wedge shadows offline,
* the resilience on/off comparison (what retries/backoff buy back),
* injector accounting (drops, delays) so curves are explainable, and
* the brownout timeline: liveness mid-outage vs after recovery.

Set ``BENCH_QUICK=1`` to shrink fleets and the probe budget for CI
smoke runs.
"""

import json
import os

from repro.chaos import ChaosSpec, apply_chaos, binding_liveness
from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.fleet import FleetDeployment
from repro.parallel import run_campaign
from repro.vendors import vendor

from conftest import OUTPUT_DIR, emit

#: Campaign target: an Orvibo-style design whose Type-1 unbind skips the
#: bound-user check, so mass-unbind actually lands and the attack-success
#: axis of the curve has room to fall as probes get dropped.
TARGET = VendorDesign(
    name="Orvibo-like",
    device_type="smart-plug",
    device_auth=DeviceAuthMode.DEV_TOKEN,
    unbind_checks_bound_user=False,
    id_scheme="serial-number",
    id_serial_digits=6,
)
VENDOR = "OZWI"
SEED = 17
QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
#: Each curve row is averaged over these seeds — a single seed makes the
#: row hostage to one Bernoulli draw (e.g. the attacker's login packet).
SEEDS = (17, 18) if QUICK else (17, 18, 19, 20, 21)
HOUSEHOLDS = 6 if QUICK else 16
PROBES = 12 if QUICK else 48
#: flaky-wan's authored loss is 5%; intensity multiplies it, so the
#: curve sweeps the cloud path from clean up to ~40% loss.
INTENSITIES = (0.0, 2.0, 8.0) if QUICK else (0.0, 1.0, 2.0, 4.0, 8.0)
PLAN = "flaky-wan"


def _campaign_row(intensity, resilience):
    """One chaos curve row: denial + liveness averaged over ``SEEDS``."""
    samples = []
    for seed in SEEDS:
        result = run_campaign(
            TARGET,
            campaign="mass-unbind",
            households=HOUSEHOLDS,
            max_probes=PROBES,
            workers=1,
            seed=seed,
            trace_messages=False,
            chaos=ChaosSpec(
                plan=PLAN, intensity=intensity, resilience=resilience
            ),
        )
        liveness = result.liveness
        shard_chaos = result.shard_results[0].chaos
        samples.append({
            "denial_rate": result.report.denial_rate,
            "ids_probed": result.report.ids_probed,
            "ids_hit": result.report.ids_hit,
            "bound_fraction": liveness["bound_fraction"],
            "online_fraction": liveness["online_fraction"],
            "injector_dropped": shard_chaos["injector"]["dropped"],
            "injector_delayed": shard_chaos["injector"]["delayed"],
            "retries": shard_chaos["resilience"].get("retries", 0),
            "giveups": shard_chaos["resilience"].get("giveups", 0),
        })
    row = {
        key: round(sum(s[key] for s in samples) / len(samples), 4)
        for key in samples[0]
    }
    row.update(
        intensity=intensity,
        resilience=resilience,
        seeds=len(samples),
    )
    return row


def _brownout_timeline():
    """Degrade -> recover: liveness mid-brownout and after it lifts."""
    fleet = FleetDeployment(
        vendor(VENDOR), households=HOUSEHOLDS, seed=SEED
    )
    controller = apply_chaos(
        fleet, ChaosSpec(plan="cloud-brownout", intensity=1.0)
    )
    fleet.setup_all()
    # The preset browns the cloud out during t=[30,75); sample liveness
    # deep inside the window (keepalives timed out) and after recovery.
    fleet.run(60.0)
    during = binding_liveness(fleet)
    fleet.run(60.0)
    after = binding_liveness(fleet)
    return {
        "plan": "cloud-brownout",
        "during_online_fraction": round(during["online_fraction"], 4),
        "after_online_fraction": round(after["online_fraction"], 4),
        "during_bound_fraction": round(during["bound_fraction"], 4),
        "after_bound_fraction": round(after["bound_fraction"], 4),
        "dropped": controller.injector.stats["dropped"],
        "recovered": after["online_fraction"] >= during["online_fraction"],
    }


def test_chaos_resilience_curves(benchmark):
    """The headline artifact: fault-intensity curves -> BENCH_chaos.json."""
    curves = benchmark.pedantic(
        lambda: [
            _campaign_row(intensity, resilience)
            for resilience in (True, False)
            for intensity in INTENSITIES
        ],
        rounds=1,
        iterations=1,
    )
    brownout = _brownout_timeline()

    payload = {
        "config": {
            "campaign_vendor": TARGET.name,
            "brownout_vendor": VENDOR,
            "seed": SEED,
            "households": HOUSEHOLDS,
            "max_probes": PROBES,
            "plan": PLAN,
            "quick": QUICK,
        },
        "intensity_curves": curves,
        "brownout_timeline": brownout,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_chaos.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    with_res = [row for row in curves if row["resilience"]]
    without = [row for row in curves if not row["resilience"]]
    calm = with_res[0]
    worst = with_res[-1]
    emit(
        "chaos",
        f"{PLAN} x{len(INTENSITIES)} intensities, {HOUSEHOLDS} households: "
        f"denial {calm['denial_rate']:.0%} calm -> {worst['denial_rate']:.0%} "
        f"at intensity {worst['intensity']:g} (resilient); "
        f"bound fraction {worst['bound_fraction']:.0%} resilient vs "
        f"{without[-1]['bound_fraction']:.0%} bare at max intensity; "
        f"brownout online {brownout['during_online_fraction']:.0%} during -> "
        f"{brownout['after_online_fraction']:.0%} after; "
        f"BENCH_chaos.json written",
    )
    # The curve must actually cover >=3 intensities and the calm point
    # must be fault-free (intensity 0 is an inert plan).
    assert len(INTENSITIES) >= 3
    assert calm["injector_dropped"] == 0
    assert brownout["recovered"]

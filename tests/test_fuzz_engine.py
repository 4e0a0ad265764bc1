"""The fuzz engine itself: executor determinism, oracle correctness on
known-weak and secure designs, craft gating, and (marked ``fuzz``)
hypothesis-driven search and shrinking."""

from types import SimpleNamespace

import pytest

from repro.fuzz import (
    FuzzReport,
    all_designs,
    craft_block,
    design_named,
    differential_divergence,
    differential_groups,
    equivalence_fingerprint,
    execute_sequence,
    fuzz_design,
    principal_of,
    witness_from_report,
)
from repro.fuzz.oracles import ModelTracker
from repro.fuzz.steps import MODEL_MOVES, VOCABULARY


# ---------------------------------------------------------------------------
# vocabulary / gating
# ---------------------------------------------------------------------------


def test_every_step_names_a_principal():
    for step in VOCABULARY:
        assert principal_of(step) in ("owner", "attacker", "stale",
                                      "second", "world")


def test_model_moves_are_vocabulary_steps():
    assert set(MODEL_MOVES) <= set(VOCABULARY)


def test_craft_gating_mirrors_the_forgery_asymmetry():
    # No firmware -> no device-protocol forgeries (OZWI, Section VI-A).
    assert craft_block(design_named("OZWI"), "attacker-status") is not None
    # Firmware published -> craftable (TP-LINK).
    assert craft_block(design_named("TP-LINK"), "attacker-status") is None
    # Capability bindings cannot be forged remotely at all.
    assert craft_block(
        design_named("Secure-Capability"), "attacker-bind"
    ) is not None


def test_every_single_step_executes_without_crashing():
    for design in all_designs():
        for step in VOCABULARY:
            report = execute_sequence(design, [step], seed=0)
            assert isinstance(report, FuzzReport)
            assert len(report.trace) == 1


# ---------------------------------------------------------------------------
# executor determinism
# ---------------------------------------------------------------------------


def test_execution_is_deterministic_for_a_fixed_seed():
    sequence = ["attacker-login", "attacker-bind", "owner-control",
                "advance", "attacker-control"]
    design = design_named("KONKE")
    first = execute_sequence(design, sequence, seed=5)
    second = execute_sequence(design, sequence, seed=5)
    assert first.to_data() == second.to_data()


def test_normalized_traces_are_seed_independent():
    sequence = ["attacker-unbind1", "attacker-bind", "advance"]
    design = design_named("Orvibo")
    traces = {
        tuple(map(str, execute_sequence(design, sequence, seed=s).trace))
        for s in (0, 1, 2)
    }
    assert len(traces) == 1


# ---------------------------------------------------------------------------
# safety oracle
# ---------------------------------------------------------------------------


def test_belkin_forged_unbind_is_a_silent_ownership_transfer():
    report = execute_sequence(design_named("Belkin"), ["attacker-unbind1"],
                              seed=0)
    keys = report.finding_keys()
    assert ("safety", "silent-ownership-transfer", "attacker-unbind1") in keys
    assert report.trace[0]["accepted"]
    assert report.trace[0]["owner"] == ""  # victim's binding is gone


def test_tp_link_accepts_forged_device_protocol():
    report = execute_sequence(design_named("TP-LINK"), ["attacker-status"],
                              seed=0)
    assert ("safety", "forged-device-accepted", "attacker-status") \
        in report.finding_keys()


def test_secure_baselines_are_clean_on_attacker_sequences():
    sequence = ["attacker-login", "attacker-bind", "attacker-unbind1",
                "attacker-unbind2", "attacker-status", "attacker-fetch",
                "attacker-control"]
    for name in ("Secure-DevToken", "Secure-Capability", "Secure-PubKey"):
        report = execute_sequence(design_named(name), sequence, seed=0)
        assert report.findings() == [], (
            f"{name} produced findings: {report.findings()}"
        )


def test_owner_unbinding_their_own_device_is_not_a_violation():
    report = execute_sequence(
        design_named("BroadLink"), ["owner-unbind", "owner-bind"], seed=0
    )
    assert report.violations == []


def test_stale_token_is_rejected_after_logout():
    report = execute_sequence(
        design_named("BroadLink"),
        ["owner-logout", "stale-control", "stale-unbind"],
        seed=0,
    )
    stale = [o for o in report.trace if o["step"].startswith("stale-")]
    assert stale and all(o["sent"] and not o["accepted"] for o in stale)
    assert report.violations == []


# ---------------------------------------------------------------------------
# model oracle
# ---------------------------------------------------------------------------


def test_model_tracker_agrees_with_the_concrete_cloud_on_model_moves():
    # Lock-step conformance on pure model-vocabulary sequences: the
    # Figure-2 abstraction and the full simulation must not diverge.
    import itertools

    for design in all_designs():
        for pair in itertools.product(sorted(MODEL_MOVES), repeat=2):
            report = execute_sequence(design, list(pair), seed=0)
            assert report.divergences == [], (
                f"{design.name} {pair}: {report.divergences}"
            )


def test_model_tracker_retires_on_non_model_steps():
    report = execute_sequence(
        design_named("KONKE"), ["owner-control", "attacker-bind"], seed=0
    )
    assert report.model_steps == 0  # tracker retired before the bind
    assert report.divergences == []


def outcome(step, sent=True, accepted=False, owner="owner", code="x"):
    """A hand-built executor outcome for one step."""
    return {"step": step, "sent": sent, "accepted": accepted,
            "owner": owner, "code": code}


# KONKE's attacker can craft a bind and nothing else, so
# ``attacker-bind`` is craftable and ``attacker-unbind1`` is not.
@pytest.mark.parametrize("kind, step_outcome", [
    ("craftability", outcome("attacker-bind", sent=False, code="blocked")),
    ("owner-state", outcome("attacker-unbind1", owner="")),
    ("acceptance", outcome("attacker-unbind1", accepted=True)),
])
def test_model_tracker_records_a_contradicting_step_and_retires(
    kind, step_outcome
):
    tracker = ModelTracker(design_named("KONKE"))
    assert tracker.moves == ["bind"]
    tracker.observe(3, step_outcome)
    assert [(d["kind"], d["step"], d["step_name"]) for d in tracker.divergences] == [
        (kind, 3, step_outcome["step"])
    ]
    assert not tracker.active
    tracker.observe(4, outcome("attacker-unbind1", owner="attacker"))
    assert len(tracker.divergences) == 1  # retired: nothing more recorded


def test_model_tracker_records_an_unpredicted_hijack_and_retires():
    tracker = ModelTracker(design_named("KONKE"))
    tracker.observe(0, outcome("attacker-unbind1"))  # rejected, as predicted
    assert tracker.divergences == [] and tracker.applied == 1
    executor = SimpleNamespace(
        probe_hijack=lambda: {"accepted": True, "executed": True},
        deployment=SimpleNamespace(victim=SimpleNamespace(
            device=SimpleNamespace(executed_commands=["hijack"]))),
    )
    assert tracker.finish(executor) == {"accepted": True, "executed": True}
    assert [(d["kind"], d["step"], d["step_name"]) for d in tracker.divergences] == [
        ("hijack-reachability", 1, "(probe)")
    ]
    assert not tracker.active
    assert tracker.finish(executor) is None


# ---------------------------------------------------------------------------
# differential oracle
# ---------------------------------------------------------------------------


def test_broadlink_and_lightstory_are_spec_equivalent():
    fp = {d.name: equivalence_fingerprint(d) for d in all_designs()}
    assert fp["BroadLink"] == fp["Lightstory"]
    groups = differential_groups(all_designs())
    assert [sorted(d.name for d in g) for g in groups] == [
        ["BroadLink", "Lightstory"]
    ]


def test_equivalent_designs_produce_identical_traces():
    group = [design_named("BroadLink"), design_named("Lightstory")]
    sequence = ["attacker-bind", "attacker-unbind1", "second-login",
                "second-control", "owner-control"]
    assert differential_divergence(group, sequence, seed=0) is None


def test_differential_oracle_flags_distinct_designs():
    # Sanity-check the comparator itself on designs that genuinely
    # differ: Belkin accepts the forged unbind, Secure-DevToken rejects.
    finding = differential_divergence(
        [design_named("Belkin"), design_named("Secure-DevToken")],
        ["attacker-unbind1"],
        seed=0,
    )
    assert finding is not None and finding["kind"] == "differential"


# ---------------------------------------------------------------------------
# hypothesis-driven search + shrinking (marked fuzz: slower, generative)
# ---------------------------------------------------------------------------


@pytest.mark.fuzz
def test_fuzzer_finds_and_shrinks_the_belkin_unauthenticated_unbind():
    witnesses = fuzz_design(design_named("Belkin"), seed=1234,
                            found_by="pytest")
    transfers = [w for w in witnesses
                 if w.finding["kind"] == "silent-ownership-transfer"]
    assert transfers
    # Shrinking must reduce the family to its one-step core.
    assert transfers[0].sequence == ["attacker-unbind1"]


@pytest.mark.fuzz
def test_fuzzer_is_deterministic_for_a_fixed_seed():
    first = fuzz_design(design_named("Orvibo"), seed=42)
    second = fuzz_design(design_named("Orvibo"), seed=42)
    assert [w.to_data() for w in first] == [w.to_data() for w in second]


@pytest.mark.fuzz
def test_fuzzer_finds_nothing_on_secure_baselines():
    for name in ("Secure-DevToken", "Secure-Capability", "Secure-PubKey"):
        witnesses = fuzz_design(design_named(name), seed=1234,
                                max_examples=60, max_size=8)
        assert witnesses == [], (
            f"{name}: {[w.name for w in witnesses]}"
        )


@pytest.mark.fuzz
def test_witness_from_report_packages_the_first_new_key():
    report = execute_sequence(design_named("Belkin"), ["attacker-unbind1"],
                              seed=0)
    keys = report.finding_keys()
    witness = witness_from_report(report, keys, found_by="pytest")
    assert witness.design == "Belkin"
    assert witness.finding["kind"] == keys[0][1]
    assert witness.trace == report.trace

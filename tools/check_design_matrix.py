#!/usr/bin/env python3
"""Design-matrix regression gate: fail CI when a Table-III cell changes.

Replays the full A1–A4 attack battery over every studied vendor *and*
every secure baseline (13 designs) and compares both the per-attack
outcomes and the condensed Table III cells against the pinned fixture
``tools/design_matrix_fixture.json``.  Any drift — an attack that starts
succeeding, stops succeeding, or changes its reported cell — fails the
build; the authorization refactor must never move a matrix cell.

The gate also replays every fuzz-corpus witness sequence over all 13
designs and compares the oracle finding keys against
``tools/fuzz_matrix_fixture.json`` — so a policy regression anywhere in
the matrix that fuzzing has *ever* caught (not only on the design the
witness was minimized on) fails the build too.

Last, it replays the battery observed.  An observed run always stages
its targeted state cold, while an unobserved one restores memoized
staged-world images (``repro.attacks.runner.StagedWorld``), so any
report that differs between the two fails the build, naming the first
(design, attack) that does: CI guards both paths at the pinned seed.

Usage:
    PYTHONPATH=src python tools/check_design_matrix.py            # gate
    PYTHONPATH=src python tools/check_design_matrix.py --update   # re-pin
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.analysis.evaluator import VendorEvaluation  # noqa: E402
from repro.attacks.runner import run_all_attacks  # noqa: E402
from repro.fuzz.corpus import replay_matrix  # noqa: E402
from repro.obs.runtime import Observability  # noqa: E402
from repro.secure.designs import SECURE_BASELINES  # noqa: E402
from repro.vendors.profiles import STUDIED_VENDORS  # noqa: E402

TOOLS = pathlib.Path(__file__).resolve().parent
FIXTURE = TOOLS / "design_matrix_fixture.json"
FUZZ_FIXTURE = TOOLS / "fuzz_matrix_fixture.json"
CORPUS = TOOLS.parent / "tests" / "fixtures" / "fuzz_corpus"

#: Battery seed pinned into the fixture (outcomes must be seed-stable,
#: but the gate replays the exact recorded configuration).
SEED = 0


#: The 13 designs the matrix covers.
DESIGNS = list(STUDIED_VENDORS) + list(SECURE_BASELINES)


def compute_matrix(seed: int = SEED) -> dict:
    """Attack outcomes + Table III cells for all 13 designs."""
    designs = {}
    for design in DESIGNS:
        reports = run_all_attacks(design, seed=seed)
        evaluation = VendorEvaluation(design, reports)
        designs[design.name] = {
            "cells": evaluation.cells(),
            "outcomes": {
                attack_id: report.outcome.value
                for attack_id, report in reports.items()
            },
        }
    return {"seed": seed, "designs": designs}


def compute_fuzz_matrix(seed: int = SEED) -> dict:
    """Every corpus witness sequence replayed over all 13 designs."""
    return {"seed": seed, "witnesses": replay_matrix(CORPUS, seed=seed)}


def check(path: pathlib.Path) -> int:
    try:
        pinned = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"FAIL: {path} missing — run with --update to pin the fixture")
        return 1
    computed = compute_matrix(pinned.get("seed", SEED))

    failures = []
    pinned_designs = pinned.get("designs", {})
    for name in sorted(set(pinned_designs) | set(computed["designs"])):
        want = pinned_designs.get(name)
        got = computed["designs"].get(name)
        if want is None:
            failures.append(f"{name}: not in fixture (re-pin with --update)")
            continue
        if got is None:
            failures.append(f"{name}: design disappeared from the catalog")
            continue
        drift = []
        for section in ("cells", "outcomes"):
            for key in sorted(set(want[section]) | set(got[section])):
                pinned_value = want[section].get(key)
                value = got[section].get(key)
                if value != pinned_value:
                    drift.append(f"{section}.{key}: {pinned_value!r} -> {value!r}")
        if drift:
            failures.append(f"{name}: " + "; ".join(drift))
            print(f"  FAIL {name}: " + "; ".join(drift))
        else:
            print(f"  ok   {name}")

    if failures:
        print(f"\nFAIL: {len(failures)} design(s) drifted from the pinned matrix:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\ndesign-matrix gate: all {len(pinned_designs)} designs match the fixture")
    return 0


def check_fuzz(path: pathlib.Path) -> int:
    try:
        pinned = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"FAIL: {path} missing — run with --update to pin the fixture")
        return 1
    computed = compute_fuzz_matrix(pinned.get("seed", SEED))

    failures = []
    pinned_rows = pinned.get("witnesses", {})
    computed_rows = computed["witnesses"]
    for name in sorted(set(pinned_rows) | set(computed_rows)):
        want = pinned_rows.get(name)
        got = computed_rows.get(name)
        if want is None:
            failures.append(f"{name}: new witness not pinned (--update)")
            continue
        if got is None:
            failures.append(f"{name}: witness missing from the corpus")
            continue
        drift = []
        for design in sorted(set(want) | set(got)):
            if want.get(design) != got.get(design):
                drift.append(
                    f"{design}: {want.get(design)!r} -> {got.get(design)!r}"
                )
        if drift:
            failures.append(f"{name}: " + "; ".join(drift))
            print(f"  FAIL {name}: " + "; ".join(drift))
        else:
            print(f"  ok   {name}")

    if failures:
        print(f"\nFAIL: {len(failures)} fuzz-matrix row(s) drifted:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"\nfuzz-matrix gate: all {len(pinned_rows)} witness rows match the fixture"
    )
    return 0


def check_cold_path(seed: int = SEED) -> int:
    """Fail unless every observed (cold-staged) report equals the memoized one."""
    for design in DESIGNS:
        memoized = run_all_attacks(design, seed=seed)
        observed = run_all_attacks(design, seed=seed, observer=Observability())
        for attack_id, report in memoized.items():
            if observed[attack_id] != report:
                print(
                    f"\nFAIL: {design.name} {attack_id}: the observed (cold) report "
                    "differs from the memoized battery's"
                )
                return 1
    print(f"\ncold-path gate: observed battery matches on all {len(DESIGNS)} designs")
    return 0


def update(path: pathlib.Path, fuzz_path: pathlib.Path) -> int:
    matrix = compute_matrix()
    path.write_text(json.dumps(matrix, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"pinned {len(matrix['designs'])} designs to {path}")
    fuzz = compute_fuzz_matrix()
    fuzz_path.write_text(json.dumps(fuzz, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"pinned {len(fuzz['witnesses'])} witness rows to {fuzz_path}")
    return 0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fixture", nargs="?", type=pathlib.Path, default=FIXTURE)
    parser.add_argument("--fuzz-fixture", type=pathlib.Path,
                        default=FUZZ_FIXTURE)
    parser.add_argument("--update", action="store_true",
                        help="re-pin the fixtures from the current tree")
    options = parser.parse_args(argv)
    if options.update:
        return update(options.fixture, options.fuzz_fixture)
    status = check(options.fixture)
    status = status or check_fuzz(options.fuzz_fixture)
    return status or check_cold_path()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

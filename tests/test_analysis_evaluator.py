"""The headline reproduction test: Table III matches the paper
cell-for-cell, for every vendor, plus the Section VI-B prevalence
counts."""

import pytest

from repro.analysis.evaluator import (
    evaluate_all_vendors,
    evaluate_vendor,
    summarize_attack_prevalence,
)
from repro.analysis.report import render_agreement, render_table_iii
from repro.vendors import PAPER_TABLE_III, vendor


@pytest.fixture(scope="module")
def evaluations():
    return evaluate_all_vendors(seed=3)


class TestTableIIIReproduction:
    def test_ten_vendors_evaluated_in_order(self, evaluations):
        names = [ev.design.name for ev in evaluations]
        assert names == [row.vendor for row in PAPER_TABLE_III]

    def test_every_cell_matches_the_paper(self, evaluations):
        mismatches = {
            ev.design.name: ev.diff_from_paper()
            for ev in evaluations
            if ev.diff_from_paper()
        }
        assert not mismatches, f"cells differ from the paper: {mismatches}"

    def test_matches_paper_helper(self, evaluations):
        assert all(ev.matches_paper() for ev in evaluations)

    def test_design_columns(self, evaluations):
        by_name = {ev.design.name: ev for ev in evaluations}
        assert by_name["KONKE"].unbind_cell == "N.A."
        assert by_name["TP-LINK"].unbind_cell == "(DevId,UserToken) & DevId"
        assert by_name["TP-LINK"].bind_cell == "Sent by the device"
        assert by_name["BroadLink"].status_cell == "O"
        assert by_name["D-LINK"].status_cell == "DevId"

    def test_prevalence_counts_match_section_vi(self, evaluations):
        counts = summarize_attack_prevalence(evaluations)
        # Section VI-B: A1 on 1 device, 6 suffer A2, 4 suffer A3,
        # 3 hijacked, attacks on 9 devices overall.
        assert counts == {"A1": 1, "A2": 6, "A3": 4, "A4": 3, "any": 9}

    def test_reproduction_stable_across_seeds(self):
        for seed in (0, 17):
            evaluation = evaluate_vendor(vendor("TP-LINK"), seed=seed)
            assert not evaluation.diff_from_paper(), f"seed {seed}"


class TestRendering:
    def test_table_iii_render_contains_all_vendors(self, evaluations):
        text = render_table_iii(evaluations)
        for row in PAPER_TABLE_III:
            assert row.vendor in text
        assert "prevalence" in text

    def test_agreement_render_reports_exact_reproduction(self, evaluations):
        text = render_agreement(evaluations)
        assert "exact reproduction" in text

    def test_diff_against_unknown_vendor(self):
        from repro.cloud.policy import VendorDesign
        from repro.analysis.evaluator import VendorEvaluation
        from repro.attacks.runner import run_all_attacks

        design = VendorDesign(name="Nobody", id_scheme="serial-number")
        evaluation = VendorEvaluation(design, run_all_attacks(design, seed=0))
        assert "vendor" in evaluation.diff_from_paper()
        assert not evaluation.matches_paper()

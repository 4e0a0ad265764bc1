"""Text renderers for the reproduced tables and figures."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.evaluator import VendorEvaluation, summarize_attack_prevalence

_CHECK = {"yes": "Y", "no": "x", "O": "O", "N.A.": "N.A."}


def _mark(cell: str) -> str:
    """Render an attack cell: Y/x/O or the variant list itself."""
    return _CHECK.get(cell, cell)


def render_table_iii(evaluations: Sequence[VendorEvaluation]) -> str:
    """Fixed-width rendering of the computed Table III."""
    header = (
        f"{'#':<3} {'Vendor':<13} {'Device':<13} {'Status':<9} "
        f"{'Bind sent by':<19} {'Unbind':<26} {'A1':<3} {'A2':<3} "
        f"{'A3':<12} {'A4':<5}"
    )
    lines = ["TABLE III: Evaluation Results on Experimental Devices", header,
             "-" * len(header)]
    for index, evaluation in enumerate(evaluations, start=1):
        cells = evaluation.cells()
        lines.append(
            f"{index:<3} {evaluation.design.name:<13} "
            f"{evaluation.design.device_type:<13} {cells['status']:<9} "
            f"{cells['bind'].replace('Sent by the ', ''):<19} {cells['unbind']:<26} "
            f"{_mark(cells['A1']):<3} {_mark(cells['A2']):<3} "
            f"{_mark(cells['A3']):<12} {_mark(cells['A4']):<5}"
        )
    counts = summarize_attack_prevalence(list(evaluations))
    lines.append("-" * len(header))
    lines.append(
        "prevalence: "
        + "  ".join(f"{attack}:{count}" for attack, count in counts.items())
    )
    lines.append("legend: Y = attack launched, x = failed, O = unable to confirm")
    return "\n".join(lines)


def render_agreement(evaluations: Sequence[VendorEvaluation]) -> str:
    """Cell-for-cell comparison against the published table."""
    lines = ["Agreement with the paper's Table III:"]
    disagreements = 0
    for evaluation in evaluations:
        diff = evaluation.diff_from_paper()
        if not diff:
            lines.append(f"  {evaluation.design.name:<14} all cells match")
        else:
            disagreements += len(diff)
            for cell, (computed, expected) in diff.items():
                lines.append(
                    f"  {evaluation.design.name:<14} {cell}: computed={computed!r} "
                    f"paper={expected!r}"
                )
    lines.append(
        "RESULT: "
        + ("exact reproduction" if disagreements == 0 else f"{disagreements} cell(s) differ")
    )
    return "\n".join(lines)



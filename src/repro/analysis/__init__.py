"""Analysis layer: surface exploration, vendor evaluation, reporting."""

from repro.analysis.advisor import Advice, advise, verify_advice
from repro.analysis.design_space import (
    conformance_diff,
    enumerate_design_space,
    predict,
    sweep_design_space,
)
from repro.analysis.export import to_csv, to_json, to_markdown
from repro.analysis.metrics import compare_designs, measure_setup_cost, render_costs
from repro.analysis.protocol_model import (
    AbstractState,
    SafetyReport,
    check_safety,
    find_trace,
)
from repro.analysis.evaluator import (
    VendorEvaluation,
    evaluate_all_vendors,
    evaluate_vendor,
    summarize_attack_prevalence,
)
from repro.analysis.recommendations import Finding, check_design, render_findings
from repro.analysis.report import render_agreement, render_attack_log, render_table_iii
from repro.analysis.stealth import (
    DetectionReport,
    probe_attack_detectability,
    render_survey,
    stealth_survey,
)
from repro.analysis.surface import (
    SurfacePoint,
    TaxonomyRow,
    build_taxonomy,
    explore_surface,
    render_table_ii,
    surface_summary,
)
from repro.analysis.traces import (
    trace_binding_creation,
    trace_device_auth,
    trace_lifecycle,
)

__all__ = [
    "AbstractState",
    "Advice",
    "DetectionReport",
    "advise",
    "probe_attack_detectability",
    "render_survey",
    "stealth_survey",
    "verify_advice",
    "Finding",
    "SafetyReport",
    "check_safety",
    "compare_designs",
    "conformance_diff",
    "find_trace",
    "measure_setup_cost",
    "render_costs",
    "to_csv",
    "to_json",
    "to_markdown",
    "enumerate_design_space",
    "predict",
    "sweep_design_space",
    "trace_binding_creation",
    "trace_device_auth",
    "trace_lifecycle",
    "SurfacePoint",
    "TaxonomyRow",
    "VendorEvaluation",
    "build_taxonomy",
    "check_design",
    "evaluate_all_vendors",
    "evaluate_vendor",
    "explore_surface",
    "render_agreement",
    "render_attack_log",
    "render_findings",
    "render_table_ii",
    "render_table_iii",
    "summarize_attack_prevalence",
    "surface_summary",
]

"""Reach gate: every ``src/repro`` function must run under some entry point.

The scan runs every entry point CI runs, in this process, under
:func:`sys.setprofile`, and records every Python code object that was
called.  The profiler is installed before the first ``repro`` import,
so a function that only runs while a module is imported (a table built
at module level, a decorator) counts as reached.  The entry points are:

* :data:`COMMANDS`, small ``repro.cli.main`` invocations at the CI smoke
  sizes, plus ``repro report``, the ``--format`` variants that reach the
  exporters, a seeded ``fuzz run`` and ``fuzz score --out``;
* ``tools/check_design_matrix.py``'s ``main``;
* every ``examples/*.py``, run as ``__main__``.

It then parses each module under ``src/repro`` and collects the
functions it defines (``def`` and ``async def`` at any depth, found by
AST), each named ``module.py::Qualname`` with Python's qualified-name
rules (``outer.<locals>.inner`` for a nested function).  A function
whose code never ran is *unreached*: no command, CI step or example
needs it, so it should be wired into one, or it should go.

An unreached function fails the check unless :data:`ALLOWED` names it
with a reason.  A class key (``module.py::Class``) covers every method
of the class.  A stale entry fails too: one that names nothing that
exists, or whose functions now all run, so the allow-list cannot
outlive its reasons.

Campaigns that use a worker pool run their parent side here; the
workers run in forkserver children and are not profiled, so the
worker-side entry points are allow-listed.

Run directly (``python tools/check_reach.py``); CI runs it in the
``static`` job.  Exit code 0 = every function is reached or allowed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Mapping, Sequence, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
EXAMPLES = REPO_ROOT / "examples"

#: Where a code object starts: its first line and its name.
Start = Tuple[int, str]

#: ``module.py::Qualname`` (relative to ``src/repro``) of functions no
#: entry point reaches, each with the test or aim that keeps it.  A
#: class key covers all of its methods.
ALLOWED: Dict[str, str] = {
    # -- benchmarks/perf: the perf-smoke job imports, calls or traces these
    "chaos/injector.py::FaultInjector.deliver_order": (
        "benchmarks/perf (perf-smoke job) traces it; no scanned world has "
        "a LAN where reordering matters; "
        "tests/test_chaos.py::TestBroadcastReorder"),
    "sim/rand.py::DeterministicRandom.shuffle": (
        "FaultInjector.deliver_order's reorder draw; "
        "tests/test_chaos.py::TestBroadcastReorder"),
    "cloud/relay.py::Relay.clear_schedule": (
        "benchmarks/perf (perf-smoke job) names it in tracing.TARGETS"),
    "cloud/state/backends.py::MemoryBackend.entry_count": (
        "benchmarks/perf (perf-smoke job) counts journal entries with it"),
    "identity/tokens.py::TokenService": (
        "benchmarks/perf (perf-smoke job) names revoke_subject; "
        "tests/test_identity.py pins the token API"),
    "cloud/events.py::EventFeed": (
        "benchmarks/perf (perf-smoke job) names emit/poll; the notification "
        "feed of notifies_user designs: tests/test_cloud_events.py, "
        "tests/test_state_layer.py"),
    "cloud/sharing.py::ShareStore": (
        "benchmarks/perf (perf-smoke job) names ShareStore; grant replay "
        "and lookup: tests/test_state_layer.py, tests/test_cloud_sharing.py"),
    "obs/slo.py::LatencySketch.observe": (
        "benchmarks/perf (perf-smoke job) feeds its sketches through it; "
        "tests/test_slo.py"),
    "fleet.py::FleetDeployment.bound_users": (
        "benchmarks/perf (perf-smoke job) checks bindings with it; "
        "tests/test_fleet_campaigns.py"),
    # -- worker side of the pool: runs in forkserver children
    "parallel/pool.py::_worker_main": (
        "the forkserver worker loop and its heartbeat thread; "
        "tests/test_parallel_pool.py"),
    # -- correctness aim: fault paths and oracles
    "parallel/pool.py::WorkerTaskError": (
        "correctness aim: a worker exception crosses the pool typed; "
        "tests/test_parallel_pool.py"),
    "parallel/pool.py::WorkerPool.kill_worker": (
        "correctness aim: crash injection; tests/test_parallel_pool.py"),
    "parallel/pool.py::WorkerPool._respawn": (
        "correctness aim: a killed worker is replaced and its shards rerun "
        "cold; tests/test_parallel_pool.py"),
    "cloud/state/backends.py::JournalBackend": (
        "correctness aim: the on-disk journal and its torn-write recovery; "
        "tests/test_state_layer.py"),
    "cloud/state/backends.py::StateBackend": (
        "replay helpers the journal tests read; tests/test_state_layer.py"),
    "cloud/state/journal.py::JournalRecovery.line": (
        "torn-tail recovery summary; tests/test_state_layer.py"),
    "cloud/state/protocol.py::RecordStoreBase.record_key": (
        "record-store protocol default for flat stores; "
        "tests/test_state_layer.py"),
    "fuzz/oracles.py::ModelTracker._record": (
        "correctness aim: the Figure-2 conformance oracle records a "
        "divergence here; no pinned design diverges; "
        "tests/test_fuzz_engine.py::test_model_tracker_records_*"),
    "analysis/design_space.py::_predict_capability": (
        "correctness aim: the closed-form predictor on capability designs; "
        "tests/test_analysis_design_space.py checks it against the "
        "simulation"),
    "analysis/design_space.py::conformance_diff": (
        "correctness aim: predictor vs simulation; "
        "tests/test_analysis_design_space.py"),
    "sim/scheduler.py::Scheduler._pending_at_or_before": (
        "run_until's max_events livelock guard; tests/test_sim_kernel.py"),
    "sim/scheduler.py::Scheduler._compact": (
        "heap compaction after mass cancellation; tests/test_sim_kernel.py, "
        "tests/test_obs_wiring.py"),
    "obs/slo.py::RedAccounting": (
        "RED totals cross-checked against the audit log; tests/test_slo.py, "
        "tests/test_observed_rows.py"),
    # -- interfaces whose methods never run by design
    "obs/observer.py::Observer": (
        "NULL_OBSERVER's no-op hook interface; tests/test_obs_core.py"),
    "net/network.py::FaultFilter": (
        "typing.Protocol of the fault seam FaultInjector implements"),
    "net/network.py::PacketProxy": (
        "typing.Protocol of the proxy seam MitmProxy implements"),
    "identity/device_ids.py::DeviceIdScheme": (
        "abstract interface of the three device-ID schemes"),
    # -- paper claims the tests reproduce
    "analysis/surface.py::explore_surface": (
        "Table II surface exploration (12 probes, 6 state-changing); "
        "tests/test_analysis_surface.py"),
    "analysis/surface.py::SurfacePoint": (
        "Table II surface exploration; tests/test_analysis_surface.py"),
    "attacks/id_inference.py::targeted_search": (
        "section ID-enumeration claim; tests/test_attacks_id_inference.py"),
    "attacks/id_inference.py::ProbeStats": (
        "section ID-enumeration claim; tests/test_attacks_id_inference.py"),
    "identity/device_ids.py::MacDeviceId.candidates": (
        "section ID-enumeration claim: the MAC space enumerate_ids walks; "
        "tests/test_identity.py"),
    "identity/device_ids.py::RandomDeviceId.candidates": (
        "section ID-enumeration claim: the random space is not walkable; "
        "tests/test_identity.py"),
    "attacks/traffic_analysis.py::differing_fields": (
        "section IV traffic analysis; tests/test_attacks_traffic_analysis.py"),
    "attacks/traffic_analysis.py::ForgeryPlaybook": (
        "section IV traffic analysis; tests/test_attacks_traffic_analysis.py"),
    "attacks/traffic_analysis.py::craft_foreign_bind": (
        "section IV forged bind; tests/test_attacks_traffic_analysis.py"),
    "secure/verifier.py::SecurityVerdict": (
        "the secure-baseline claim (no hijack or data leak, capability "
        "defeats all); tests/test_secure_baselines.py"),
    "app/automation.py::AutomationEngine": (
        "section V-B cascade's rule lifecycle and polling; "
        "tests/test_app_automation.py"),
    "device/base.py::DeviceFirmware.factory_reset": (
        "section IV-C reset-triggered unbind; tests/test_device_base.py"),
    "device/base.py::DeviceFirmware.power_off": (
        "power loss; tests/test_device_base.py, tests/test_failure_injection.py"),
    "app/mobile.py::MobileApp": (
        "user-side endpoints no CLI world calls: sharing "
        "(tests/test_cloud_sharing.py), the event feed "
        "(tests/test_detection.py) and the post-binding token fetch "
        "(tests/test_analysis_design_space.py)"),
    "cloud/handlers.py::EndpointHandlers.handle_event_poll": (
        "the event-feed endpoint; tests/test_detection.py, "
        "tests/test_analysis_stealth.py"),
    "cloud/handlers.py::EndpointHandlers.handle_binding_info": (
        "the post-binding token endpoint; tests/test_analysis_design_space.py"),
    "cloud/pdp/rules.py::_rule_limit_bind_probes": (
        "the enumeration defence; tests/test_rate_limiting.py"),
    "cloud/pdp/rules.py::EvalContext.oblige": (
        "the enumeration defence's deny-path side effect; "
        "tests/test_rate_limiting.py"),
    "cloud/pdp/spec.py::PolicySpec.from_data": (
        "a policy spec loaded from data; tests/test_pdp.py"),
    "cloud/pdp/spec.py::PolicySpec.__eq__": (
        "spec round-trip equality; tests/test_pdp.py, "
        "tests/test_pdp_compile.py"),
    "cloud/pdp/spec.py::RuleRef.__eq__": (
        "spec round-trip equality; tests/test_pdp.py"),
    "cloud/pdp/model.py::Decision.explain": (
        "the explainable PDP verdict; tests/test_pdp.py"),
    "chaos/resilience.py::RetryPolicy.schedule": (
        "same-seed backoff determinism; tests/test_chaos.py"),
    # -- state the tests read to check outcomes
    "cloud/audit.py::AuditEntry": (
        "the audit row view the tests compare; tests/test_parallel_pool.py, "
        "tests/test_cloud_stores.py"),
    "cloud/audit.py::AuditLog": (
        "audit queries the tests read outcomes through; "
        "tests/test_cloud_stores.py, tests/test_rate_limiting.py"),
    "cloud/authz.py::AuthorizationCache": (
        "cache diagnostics; tests/test_authz_cache.py, "
        "tests/test_parallel_pool.py"),
    "cloud/shadows.py::ShadowStore.all": (
        "shadow/binding agreement check; tests/test_analysis_conformance.py"),
    "cloud/sharing.py::ShareStore.grantees_of": (
        "tests/test_cloud_sharing.py"),
    "core/messages.py::Message": (
        "Table I message kinds; tests/test_core_messages.py"),
    "core/messages.py::StatusMessage": (
        "Table I message kinds; tests/test_core_messages.py"),
    "core/messages.py::BindMessage": (
        "Table I message kinds; tests/test_core_messages.py"),
    "core/messages.py::UnbindMessage": (
        "Table I message kinds; tests/test_core_messages.py"),
    "core/shadow.py::TransitionRecord": (
        "Figure 2 transition log lines; tests/test_core_shadow.py"),
    "core/states.py::ShadowState": (
        "Figure 2 state names; tests/test_core_states.py"),
    "core/states.py::ShadowEvent": (
        "Figure 2 event names; tests/test_core_states.py"),
    "fuzz/executor.py::FuzzReport.to_data": (
        "fuzz report serialisation; tests/test_fuzz_engine.py"),
    "net/address.py::MacAddress": "tests/test_net_address.py",
    "net/lan.py::Router.gateway_ip": "tests/test_net_lan.py",
    "net/lan.py::Lan": (
        "LAN membership; tests/test_net_lan.py, tests/test_net_network.py"),
    "net/mitm.py::MitmProxy.add_rewrite": (
        "Frida-style rewrite; tests/test_net_network.py"),
    "net/network.py::Network": (
        "LAN leave, handler swap and the fault-filter query; "
        "tests/test_net_network.py, tests/test_chaos.py"),
    "net/provisioning.py::ProvisioningAir.listener_count": (
        "tests/test_net_discovery_provisioning.py"),
    "obs/detect/timeline.py::ForensicEvent": (
        "evidence equality across pool and serial runs; "
        "tests/test_parallel_pool.py, tests/test_detection.py"),
    "obs/detect/timeline.py::ForensicTimeline": (
        "the forensic store's record protocol and per-device view; "
        "tests/test_detection.py, tests/test_state_layer.py"),
    "obs/metrics.py::Counter.value": (
        "counter reads; tests/test_obs_core.py, tests/test_obs_wiring.py"),
    "obs/runtime.py::Observability": (
        "hooks no scanned world fires (leaf events, heap compaction); "
        "tests/test_obs_core.py, tests/test_obs_wiring.py"),
    "obs/trace.py::TraceContext": (
        "trace propagation; tests/test_detection.py"),
    "obs/tracer.py::Span": (
        "span tree walks and signatures; tests/test_obs_core.py, "
        "tests/test_observer_identity.py"),
    "obs/tracer.py::Tracer": (
        "span tree walks and signatures; tests/test_obs_core.py, "
        "tests/test_observer_identity.py"),
    "parallel/protocol.py::WorldImageCache.stats": (
        "warm-start accounting; tests/test_parallel_pool.py"),
    "sim/clock.py::VirtualClock.advance_by": "tests/test_sim_kernel.py",
    "sim/environment.py::Environment.run_until": (
        "tests/test_sim_kernel.py, tests/test_device_schedules.py"),
    "sim/rand.py::DeterministicRandom.serial_digits": (
        "pinned draw sequence; tests/test_rand_draws.py"),
    "sim/scheduler.py::EventHandle.cancelled": "tests/test_sim_kernel.py",
    "sim/scheduler.py::RepeatingHandle.cancelled": (
        "tests/test_parallel_pool.py"),
}

#: The scanned commands; ``{tmp}`` is a fresh scratch directory.
COMMANDS: Sequence[Sequence[str]] = (
    ("table1",),
    ("table2",),
    ("table3",),
    ("table3", "--format", "json"),
    ("table3", "--format", "csv"),
    ("table3", "--format", "markdown"),
    ("fig1", "--vendor", "TP-LINK"),
    ("fig2",),
    ("fig3",),
    ("fig4",),
    ("attack", "E-Link Smart", "A4-1"),
    ("audit", "D-LINK"),
    ("entropy",),
    ("witness", "OZWI"),
    ("fix", "OZWI"),
    ("sweep",),
    ("secure",),
    ("report",),
    ("obs", "--households", "4", "--probes", "16"),
    ("obs", "--mode", "mass-unbind", "--households", "4", "--probes", "16",
     "--format", "json"),
    ("obs", "--mode", "attacks", "--vendor", "D-LINK"),
    ("slo", "--households", "4", "--seconds", "60"),
    ("slo", "--households", "4", "--seconds", "60", "--chaos",
     "cloud-brownout", "--format", "json"),
    ("campaign", "--workers", "2", "--households", "8", "--probes", "16"),
    ("campaign", "--mode", "shadow-probe", "--workers", "2", "--households",
     "8", "--probes", "16", "--repeat", "2", "--format", "json"),
    ("campaign", "--mode", "mass-unbind", "--build", "clone", "--households",
     "8", "--probes", "16"),
    ("campaign", "--households", "8", "--probes", "16", "--chaos",
     "lossy-lan"),
    ("campaign", "--mode", "mass-rebind", "--households", "8", "--probes",
     "16", "--detect"),
    ("chaos", "list"),
    ("chaos", "describe", "flaky-wan"),
    ("chaos", "describe", "cloud-brownout", "--intensity", "2"),
    ("chaos", "run", "cloud-restart", "--households", "4", "--seconds", "120"),
    ("chaos", "run", "lossy-lan", "--households", "4", "--seconds", "60",
     "--format", "json"),
    ("chaos", "run", "partition-storm", "--intensity", "2", "--households",
     "4", "--seconds", "120"),
    ("chaos", "run", "jittery-backhaul", "--intensity", "0.5", "--households",
     "4", "--seconds", "60"),
    ("detect", "--households", "4", "--probes", "8"),
    ("detect", "--households", "4", "--probes", "8", "--attack", "A4",
     "--format", "json"),
    ("designs", "list", "--format", "json"),
    ("designs", "describe", "OZWI"),
    ("designs", "enumerate", "--limit", "64"),
    ("designs", "diff", "--limit", "64"),
    ("designs", "diff", "--limit", "64", "--format", "json"),
    ("snapshot", "save", "{tmp}/cloud.json", "--vendor", "OZWI",
     "--households", "3"),
    ("snapshot", "inspect", "{tmp}/cloud.json"),
    ("snapshot", "load", "{tmp}/cloud.json"),
    ("--seed", "1234", "fuzz", "run", "--budget", "60", "--designs", "KONKE",
     "BroadLink", "Lightstory", "--max-examples", "30", "--min-findings", "1",
     "--out", "{tmp}/witnesses"),
    ("fuzz", "list"),
    ("fuzz", "replay"),
    ("fuzz", "score", "--out", "{tmp}/BENCH_fuzz.json"),
)


def defined_functions(path: pathlib.Path) -> Dict[str, Tuple[Set[Start], int]]:
    """``Qualname -> (starts, lines)`` for every function *path* defines.

    A decorated function's code object starts on its first decorator,
    an undecorated one on its ``def`` line; both lines are among its
    starts.  *lines* counts the function's source lines, decorators
    included.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions: Dict[str, Tuple[Set[Start], int]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                starts = {(child.lineno, child.name), (first, child.name)}
                functions[qualname] = (starts, child.end_lineno - first + 1)
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return functions


def unreached_functions(src_root: pathlib.Path,
                        called: Mapping[str, Set[Start]]) -> Dict[str, int]:
    """``module.py::Qualname -> lines`` of the functions that never ran.

    *called* maps a resolved file path to the starts of the code
    objects that ran in it.
    """
    unreached: Dict[str, int] = {}
    for path in sorted(src_root.rglob("*.py")):
        ran = called.get(str(path.resolve()), set())
        module = path.relative_to(src_root).as_posix()
        for qualname, (starts, lines) in defined_functions(path).items():
            if not starts & ran:
                unreached[f"{module}::{qualname}"] = lines
    return unreached


def _covers(key: str, function: str) -> bool:
    return function == key or function.startswith(key + ".")


def check(src_root: pathlib.Path, called: Mapping[str, Set[Start]],
          allowed: Mapping[str, str]) -> List[str]:
    """Every problem: unreached and unlisted, or listed but stale."""
    unreached = unreached_functions(src_root, called)
    problems = [
        f"{function}: no entry point reaches it; wire it into one, delete "
        f"it, or name its reason in ALLOWED"
        for function in unreached
        if not any(_covers(key, function) for key in allowed)
    ]
    for key in sorted(allowed):
        module, _, qualname = key.partition("::")
        path = src_root / module
        if not path.is_file() or not any(
                _covers(qualname, name) for name in defined_functions(path)):
            problems.append(f"{key}: listed in ALLOWED but no longer exists")
        elif not any(_covers(key, function) for function in unreached):
            problems.append(f"{key}: listed in ALLOWED but an entry point now "
                            f"reaches it; drop the entry")
    return problems


def trace_calls(run: Callable[[], None]) -> Dict[str, Set[Start]]:
    """Run *run* under a profiler; file path -> starts of called code."""
    seen: Set[object] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called: Dict[str, Set[Start]] = {}
    for code in seen:
        called.setdefault(code.co_filename, set()).add(
            (code.co_firstlineno, code.co_name))
    return {
        str(pathlib.Path(name).resolve()): starts
        for name, starts in called.items()
        if not name.startswith("<")
    }


def _timed(label: str, run: Callable[[], int]) -> None:
    """Run one entry point quietly; a non-zero exit aborts the scan."""
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        code = run()
    print(f"  {time.monotonic() - start:6.1f}s  {label}", file=sys.stderr)
    if code:
        raise SystemExit(f"{label} exited {code}")


def _run_example(path: pathlib.Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def run_entry_points() -> None:
    """Run every command, the design-matrix gate and every example."""
    from repro.cli import main
    from check_design_matrix import main as check_design_matrix

    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            argv = [arg.replace("{tmp}", tmp) for arg in command]
            _timed(f"repro {' '.join(argv)}", lambda: main(argv))
    _timed("tools/check_design_matrix.py", lambda: check_design_matrix([]))
    for example in sorted(EXAMPLES.glob("*.py")):
        _timed(f"examples/{example.name}", lambda: _run_example(example))


def main() -> int:
    sys.path.insert(0, str(SRC_ROOT.parent))
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    os.chdir(REPO_ROOT)  # fuzz replay/score/list default to a repo-relative corpus
    start = time.monotonic()
    called = trace_calls(run_entry_points)
    problems = check(SRC_ROOT, called, ALLOWED)
    for problem in problems:
        print(problem, file=sys.stderr)
    entry_points = len(COMMANDS) + 1 + len(list(EXAMPLES.glob("*.py")))
    if problems:
        print(f"{len(problems)} reach problem(s) over {entry_points} entry "
              f"points", file=sys.stderr)
        return 1
    print(f"every src/repro function is reached by {entry_points} entry "
          f"points or allowed ({len(ALLOWED)} allowed) in "
          f"{time.monotonic() - start:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

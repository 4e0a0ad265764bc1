#!/usr/bin/env python3
"""The repository's one performance benchmark: five fixed-work workloads.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/perf/run.py                        # all five workloads
    python3 benchmarks/perf/run.py --workload probe-sweep --seed 3
    python3 benchmarks/perf/run.py --workload fleet-day --trace
    python3 benchmarks/perf/run.py --repeat 5             # calibration runs

With one ``--workload`` the run happens in this process and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` (the default)
reports the end-to-end metrics with no tracing installed; ``--trace 1``
is a separate run that reports the per-layer metrics (see
``tracing.py``).  Any failed output check makes the exit status 1.

Without ``--workload``, or with ``--repeat K``, every run happens in a
fresh subprocess of this script.  ``--repeat K`` runs each workload K
times from the same seed, requires every count to repeat exactly, and
writes each metric's median, quartiles and suggested bound to
``calibration.json``.

The ``if __name__ == "__main__"`` guard below is load-bearing: the
``detect-sweep`` worker pool starts a forkserver, which imports this
script as ``__mp_main__``; without the guard each worker would re-run
the benchmark, die, be respawned three times and raise ``PoolError``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
CALIBRATION = HERE / "calibration.json"

#: About how long one run's measured window takes, in seconds, at the
#: commit that added the benchmark (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 10

WORKLOAD_NAMES = (
    "probe-sweep", "rebind-storm", "fleet-day", "detect-sweep", "attack-battery",
)

#: End-to-end metrics (``--trace 0``) and their units.
E2E_METRICS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "peak_rss_mb": "MB",
}

#: Workloads whose traced run must spend at most this share in the driver.
DRIVER_SHARE_LIMIT = 0.10
DRIVER_LIMITED = ("probe-sweep", "rebind-storm", "fleet-day")

#: Suggested-bound policy for ``--repeat``: 3x the worst relative
#: quartile spread over the workloads, at least 3%, at most the 25% a
#: bound may be.  3x rather than 2x so that a second set of runs, whose
#: spread may come out wider than the first, still stays inside the bound.
BOUND_FLOOR, BOUND_CEILING, BOUND_SPREAD_FACTOR = 0.03, 0.25, 3.0

CHILD_TIMEOUT_S = 900


def per_layer_metrics() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``) and their units.

    Layer and phase times are shares of the traced window, whose length
    is ``trace.window_s``: a layer a workload never enters then reads 0
    as a share rather than as a time.
    """
    from tracing import LAYERS, PHASES, REQUEST_LAYERS

    metrics = {f"{layer}.self_share": "ratio" for layer in LAYERS}
    metrics.update({phase: "ratio" for phase in PHASES})
    metrics.update({
        "sim.events": "count",
        "net.requests": "count",
        "chaos.dropped": "count",
        "chaos.duplicates": "count",
        "chaos.retries": "count",
        "cloud.pdp.decisions": "count",
        "cloud.pdp.deny_ratio": "ratio",
        "cloud.authz.lookups": "count",
        "cloud.authz.hit_rate": "ratio",
        "cloud.authz.invalidations": "count",
        "cloud.state.journal_entries": "count",
        "cloud.state.recover_entries_per_s": "1/s",
        "obs.overhead_ratio": "ratio",
        "fleet.restore_share": "ratio",
        "parallel.world_share": "ratio",
        "parallel.dispatch_share": "ratio",
        "parallel.merge_share": "ratio",
        "parallel.warm_ratio": "ratio",
        "parallel.utilization": "ratio",
        "parallel.image_hit_rate": "ratio",
        "py.gc.collections": "count",
        "py.gc.pause_share": "ratio",
        "py.gc.gen0.pause_share": "ratio",
        "py.gc.gen1.pause_share": "ratio",
        "py.gc.gen2.pause_share": "ratio",
        "py.gc.tail_share": "ratio",
        "py.gc.excess_share": "ratio",
    })
    metrics.update({f"{layer}.tail_share": "ratio" for layer in REQUEST_LAYERS})
    metrics.update({
        "driver.self_share": "ratio",
        "trace.window_s": "s",
        "trace.requests": "count",
        "trace.overhead_ratio": "ratio",
    })
    return metrics


# -- one run, in this process ----------------------------------------------
#
# ``workloads`` and ``tracing`` are imported inside the functions: they
# import the program, which is importable only once main() has put
# ``src/`` on the path.


def _end_to_end(outcome: Any) -> Dict[str, float]:
    from workloads import host_corrected, peak_rss_mb

    return {**host_corrected(outcome), "peak_rss_mb": peak_rss_mb()}


def _traced(name: str, config: Any) -> Tuple[Any, Dict[str, float], List[str]]:
    """An untraced reference pass, then the same work traced."""
    from tracing import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    # One set-up, and no host gauge: its readings would count as driver time.
    single = dataclasses.replace(config, setups=1, gauge=False)
    reference = workload(single, lambda: None)
    gc.collect()
    tracer = LayerTracer()
    tracer.start()
    try:
        traced = workload(single, tracer.stop)
    finally:
        tracer.stop()
    units = per_layer_metrics()
    values: Dict[str, float] = dict.fromkeys(units, 0.0)
    measured = tracer.metrics()
    undeclared = set(measured) - set(units)
    if undeclared:
        raise RuntimeError(f"tracer produced undeclared metrics: {sorted(undeclared)}")
    values.update(measured)
    values.update(traced.layers)
    # Observability overhead is a property of the untraced program.
    values["obs.overhead_ratio"] = reference.layers.get("obs.overhead_ratio", 0.0)
    # The same work in both passes, so the throughput ratio is the wall ratio.
    values["trace.overhead_ratio"] = traced.window_s / reference.window_s - 1.0
    failures = reference.failures + traced.failures
    if not tracer.layer_sum_ok:
        failures.append("layer self times + GC + driver do not sum to the traced window")
    if traced.counts != reference.counts:
        failures.append("tracing changed the program's outputs")
    driver_share = values["driver.self_share"]
    if name in DRIVER_LIMITED and driver_share > DRIVER_SHARE_LIMIT:
        failures.append(
            f"the driver spent {driver_share:.1%} of the traced window "
            f"(limit {DRIVER_SHARE_LIMIT:.0%})"
        )
    tracer.write_spans(OUT / f"trace-{name}.json", name)
    return traced, values, failures


def run_once(name: str, seed: int, trace: bool, scale: float) -> int:
    """Run one workload here, print its report, return the exit status."""
    from workloads import REFERENCE_NS, WORKLOADS, RunConfig, tail_quantile

    config = RunConfig(seed=seed, scale=scale)
    if trace:
        outcome, values, failures = _traced(name, config)
        units = per_layer_metrics()
    else:
        outcome = WORKLOADS[name](config, lambda: None)
        values, units, failures = _end_to_end(outcome), E2E_METRICS, outcome.failures
    blocks = outcome.blocks
    per_block = round(sum(block.ops for block in blocks) / len(blocks))
    tail = f"p{round(tail_quantile(per_block) * 100)}"
    print(f"workload {name}: seed {seed}, scale {scale:g}, "
          f"{'traced' if trace else 'untraced'}")
    print(f"  window: {outcome.ops} {outcome.op_name} in {outcome.window_s:.3f} s, "
          f"{len(blocks)} blocks of ~{per_block}")
    if not trace:
        print(f"  times below are scaled to a reference loop of "
              f"{REFERENCE_NS / 1e3:.0f} us; it took {outcome.median_ref_ns / 1e3:.0f} us "
              f"(median) in this run")
    notes = {
        "setup_s": f"median of {len(outcome.setups)} set-ups",
        "ops_per_s": "all operations over the whole window",
        "op_p50_us": f"each block's p50, mean of the faster half of {len(blocks)} "
                     f"blocks, n~{per_block}",
        "op_tail_us": f"each block's {tail}, mean of the faster half of {len(blocks)} "
                      f"blocks, n~{per_block}",
    }
    for metric, unit in units.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:<34} {values[metric]:>16.6f} {unit}{note}")
    print("counts: " + json.dumps(outcome.counts, sort_keys=True))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not failures:
        print("checks: all passed")
    print(json.dumps({
        "correct": not failures,
        "attempted": outcome.ops,
        "failed": outcome.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))
    return 0 if not failures else 1


# -- several runs, each in a fresh subprocess --------------------------------


def _commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _spread(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_children(names: List[str], args: argparse.Namespace) -> int:
    """Run each workload ``--repeat`` times in fresh subprocesses."""
    status = 0
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for repeat in range(args.repeat):
        shift = repeat % len(names)  # rotate the order between repeats
        for name in names[shift:] + names[:shift]:
            command = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(args.trace), "--scale", str(args.scale),
            ]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
                counts = json.loads(next(
                    line[len("counts: "):] for line in lines if line.startswith("counts: ")
                ))
            except (IndexError, StopIteration, json.JSONDecodeError):
                print(f"{name}: run {repeat + 1} produced no result "
                      f"(exit {done.returncode})")
                status = 1
                continue
            if done.returncode != 0 or not result["correct"]:
                status = 1
            runs[name].append({"result": result, "counts": counts})
    summary: Dict[str, Dict[str, Any]] = {}
    for name, entries in runs.items():
        if not entries:
            continue
        if any(entry["counts"] != entries[0]["counts"] for entry in entries):
            print(f"{name}: counts differ between repeats")
            status = 1
        metrics = entries[0]["result"]["metrics"]
        summary[name] = {
            metric: dict(_spread([e["result"]["metrics"][metric]["value"] for e in entries]),
                         unit=metrics[metric]["unit"])
            for metric in metrics
        }
    print(f"\nsummary over {args.repeat} run(s) per workload "
          "(median [q1, q3] relative spread):")
    for name, metrics in summary.items():
        print(name)
        for metric, row in metrics.items():
            print(f"  {metric:<34} {row['median']:>16.6f} {row['unit']:<6} "
                  f"[{row['q1']:.6g}, {row['q3']:.6g}] {row['spread']:.2%}")
    if args.repeat > 1 and not args.trace and summary:
        # BENCHMARK.json holds one bound per metric, so the workload with
        # the widest spread sets it; the per-workload values show which.
        bounds = {}
        for metric in E2E_METRICS:
            per_workload = {
                name: min(BOUND_CEILING,
                          max(BOUND_FLOOR, BOUND_SPREAD_FACTOR * rows[metric]["spread"]))
                for name, rows in summary.items()
            }
            bounds[metric] = {"bound": max(per_workload.values()),
                              "per_workload": per_workload}
        bounds["setup_s"]["bound"] = BOUND_CEILING  # set-up gets the largest bound
        CALIBRATION.write_text(json.dumps({
            "commit": _commit(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "scale": args.scale,
            "repeat": args.repeat,
            "suggested_bounds": bounds,
            "workloads": summary,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"calibration written to {CALIBRATION.relative_to(ROOT)}")
    return status


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Fixed-work performance benchmark (five workloads)."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    # Accepted because callers pass BENCHMARK.json's run_seconds back; it
    # sizes nothing, since the work is fixed (see workloads.py).
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"must be {RUN_SECONDS}, BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: report per-layer metrics instead")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each in a fresh subprocess")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink worlds and work (the self-test uses 0.02)")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}: the work is fixed, "
                     "use --scale to shrink it")
    if args.scale <= 0 or args.repeat < 1:
        parser.error("--scale must be positive, --repeat at least 1")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        # Never fall back to some other installed copy of the package.
        print(f"error: no repro package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    # Keep what the run writes inside the checkout: the worker pool's
    # forkserver puts its socket under tempfile's directory.  Relative,
    # because a socket path may not exceed 107 bytes.
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = os.path.relpath(scratch)
    if args.workload is not None and args.repeat == 1:
        return run_once(args.workload, args.seed, bool(args.trace), args.scale)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    return run_children(names, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-test of the perf benchmark: every workload, shrunk, run twice.

Run from the repository root::

    python -m pytest benchmarks/perf/test_perf.py

Each workload runs at ``--scale 0.02`` twice from the same seed (and
once traced), so the whole file takes well under a minute.  It checks
the benchmark's contract rather than any speed: the declared metrics
are all reported with their units, counts repeat exactly, and a copy
of the benchmark without the program fails cleanly.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SCALE = "0.02"
SEED = "3"

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "run.py"),
         "--workload", workload, "--seed", SEED, "--scale", SCALE,
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> tuple:
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    counts = next(line for line in lines if line.startswith("counts: "))
    return json.loads(lines[-1]), json.loads(counts[len("counts: "):])


def _declared(section: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert _declared("end_to_end") == run.E2E_METRICS
    assert _declared("per_layer") == run.per_layer_metrics()
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[section]]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    bounds = {entry["name"]: entry["bound"] for entry in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_reports_every_metric_and_repeats_its_counts(workload):
    first, first_counts = _result(_run(workload, trace=0))
    second, second_counts = _result(_run(workload, trace=0))
    for result in (first, second):
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == _declared("end_to_end")
        assert all(value["value"] > 0 for value in result["metrics"].values())
    assert first["attempted"] == second["attempted"]
    assert first_counts == second_counts

    traced, traced_counts = _result(_run(workload, trace=1))
    assert traced["correct"] is True
    assert {m: v["unit"] for m, v in traced["metrics"].items()} == _declared("per_layer")
    assert traced_counts == first_counts
    assert (HERE / "out" / f"trace-{workload}.json").is_file()


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("probe-sweep", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

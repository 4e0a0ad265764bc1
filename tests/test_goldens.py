"""Golden-file regression tests: the rendered artifacts are pinned.

The simulation is deterministic, so the CLI's artifact renderings can
be compared byte-for-byte against checked-in goldens.  ``repro report``
renders every paper artifact and extension, so it is the one text
golden: each per-artifact command (``repro table1``, ``fig2``, ...) must
print a verbatim section of it.  Table III's CSV export and the
detector-generalization score (the file ``repro fuzz score --out``
writes) have formats of their own and are pinned separately.

If a legitimate change alters an artifact, regenerate every golden
from the repository root with::

    PYTHONPATH=src python tests/test_goldens.py
"""

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from repro.cli import main
from repro.vendors import STUDIED_VENDORS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "goldens"
CORPUS = ROOT / "tests" / "fixtures" / "fuzz_corpus"

#: golden file -> the CLI command that produces it: the file it writes
#: to ``{out}`` if it names one, else its stdout
CASES = {
    GOLDEN_DIR / "report.txt": ["report"],
    GOLDEN_DIR / "table3.csv": ["table3", "--format", "csv"],
    ROOT / "benchmarks" / "output" / "BENCH_fuzz.json":
        ["fuzz", "score", "--corpus", str(CORPUS), "--out", "{out}"],
}

#: commands whose whole output is one section of ``report.txt``
SECTIONS = [
    ["table1"], ["table2"], ["table3"],
    ["fig1"], ["fig2"], ["fig3"], ["fig4"],
    ["entropy"], ["sweep"], ["secure"],
] + [
    [command, design.name]
    for command in ("witness", "audit")
    for design in STUDIED_VENDORS
]


def render(argv):
    """The stdout of one CLI command, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def produce(argv):
    """The bytes one case's command produces."""
    if "{out}" not in argv:
        return render(argv).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "out"
        render([str(path) if arg == "{out}" else arg for arg in argv])
        return path.read_bytes()


@pytest.mark.parametrize(
    "golden", sorted(CASES), ids=lambda path: path.name
)
def test_artifact_matches_golden(golden):
    assert produce(CASES[golden]) == golden.read_bytes(), (
        f"{golden.name} drifted from its golden; if intentional, regenerate it"
    )


@pytest.mark.parametrize("argv", SECTIONS, ids=" ".join)
def test_command_output_is_a_report_section(argv):
    report = (GOLDEN_DIR / "report.txt").read_text()
    assert render(argv) in report, (
        f"'repro {' '.join(argv)}' no longer matches its section of report.txt"
    )


def test_goldens_exist_for_every_case():
    on_disk = {path.name for path in GOLDEN_DIR.iterdir()}
    assert on_disk == {path.name for path in CASES if path.parent == GOLDEN_DIR}


if __name__ == "__main__":
    for path, argv in CASES.items():
        path.write_bytes(produce(argv))
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)

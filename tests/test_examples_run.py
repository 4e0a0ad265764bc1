"""Smoke tests: every shipped example runs clean and prints its story."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": ["step 5: binding revocation", "Figure 1"],
    "vendor_audit.py": ["exact reproduction", "TABLE II", "TABLE III"],
    "device_hijack_demo.py": ["binding now belongs to: mallory@example.com",
                              "rejected (not-bound-user)"],
    "id_bruteforce.py": ["scalable binding DoS", "victim setup succeeds: False"],
    "secure_binding.py": ["Secure-Capability", "SECURE (all attacks defeated)"],
    "automation_cascade.py": ["(temperature_c=45.0): accepted",
                              "=> AC plug on: False -> True"],
}


@pytest.mark.parametrize("example", sorted(EXPECTED_MARKERS))
def test_example_runs_and_tells_its_story(example):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / example)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for marker in EXPECTED_MARKERS[example]:
        assert marker in result.stdout, (example, marker)


def test_every_example_is_covered():
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXPECTED_MARKERS)

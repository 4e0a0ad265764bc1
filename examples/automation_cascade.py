#!/usr/bin/env python
"""The A1 cascade: forged sensor data drives physical actuators.

Section V-B: "when an air conditioning system is associated with a
temperature sensor, fake data of the sensor may turn on or turn off the
air conditioning system."  This example builds exactly that home — a
temperature sensor plus an AC smart plug wired together by an
IFTTT-style rule — and shows one forged status message flipping the AC,
with no attack against the AC at all.  It is the same scenario as the
"§V-B — A1 cascade through an automation rule" section of
``python -m repro report``, here at another seed.

Run:
    python examples/automation_cascade.py
"""

from repro.analysis.full_report import render_cascade


def main() -> None:
    print("Alice's home: AC smart plug + temperature sensor, one rule")
    print(render_cascade(seed=17))
    print("\nthe automation trusted cloud telemetry (Section V-B's cascade effect)")


if __name__ == "__main__":
    main()

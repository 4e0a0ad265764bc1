"""Simulated sensors: the physical quantities devices report upstream.

Telemetry matters to the reproduction because A1 is about *data*: the
attacker injects fake readings or steals real ones.  Each sensor
produces a plausible, seeded time series so that injected values are
distinguishable from organic ones in tests.
"""

from __future__ import annotations

import math

from repro.sim.rand import DeterministicRandom


class Sensor:
    """A seeded reading stream whose position is its reading count.

    Every reading makes exactly one :meth:`_draw`-shaped draw, so a
    world image keeps just :attr:`reads` and :meth:`resume` replays the
    draws on a freshly built sensor, instead of copying the generator.
    """

    def __init__(self, rng: DeterministicRandom) -> None:
        self._rng = rng
        #: readings taken so far
        self.reads = 0

    def _draw(self) -> None:
        self._rng.gauss(0.0, 1.0)  # consumes the same as any gauss(mu, sigma)

    def resume(self, reads: int) -> None:
        """Advance this sensor, built afresh, to just after *reads* readings."""
        for _ in range(reads - self.reads):
            self._draw()
        self.reads = reads


class PowerMeter(Sensor):
    """Instantaneous power draw of a plug/socket load (watts)."""

    def __init__(self, rng: DeterministicRandom, base_watts: float = 40.0) -> None:
        super().__init__(rng)
        self.base_watts = base_watts

    def read(self, on: bool, now: float) -> float:
        """Current reading."""
        self.reads += 1
        if not on:
            return round(abs(self._rng.gauss(0.3, 0.1)), 2)  # vampire draw
        daily = 1.0 + 0.2 * math.sin(2 * math.pi * (now % 86400) / 86400)
        return round(self.base_watts * daily + self._rng.gauss(0, 1.5), 2)


class Thermometer(Sensor):
    """Ambient temperature (Celsius) with slow drift."""

    def __init__(self, rng: DeterministicRandom, base_c: float = 22.0) -> None:
        super().__init__(rng)
        self.base_c = base_c

    def read(self, now: float) -> float:
        """Current reading."""
        self.reads += 1
        drift = 2.0 * math.sin(2 * math.pi * (now % 86400) / 86400)
        return round(self.base_c + drift + self._rng.gauss(0, 0.2), 2)


class MotionSensor(Sensor):
    """Binary motion events with a configurable activity rate."""

    def __init__(self, rng: DeterministicRandom, activity: float = 0.1) -> None:
        super().__init__(rng)
        self.activity = activity

    def _draw(self) -> None:
        self._rng.uniform(0.0, 1.0)

    def read(self) -> bool:
        self.reads += 1
        return self._rng.uniform(0.0, 1.0) < self.activity

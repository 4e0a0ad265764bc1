"""Virtual time for the discrete-event simulation.

All timeouts in the reproduction (heartbeat intervals, the cloud's
offline detection, Philips Hue's 30-second button window) are expressed
in virtual seconds; nothing in the library reads wall-clock time, which
keeps every experiment deterministic and instantaneous.
"""

from __future__ import annotations

from repro.core.errors import SimulationError


class VirtualClock:
    """A monotonically advancing simulated clock."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError("clock cannot start before t=0")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in virtual seconds."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Jump the clock forward to *time* (never backwards)."""
        if time < self._now:
            raise SimulationError(
                f"time cannot move backwards ({time} < {self._now})"
            )
        self._now = float(time)

    def advance_by(self, delta: float) -> None:
        """Advance the clock by *delta* seconds."""
        if delta < 0:
            raise SimulationError("cannot advance by a negative delta")
        self._now += float(delta)

"""The simulation environment: clock + scheduler + RNG in one handle.

Every simulated component (cloud, device, app, attacker, network)
receives the same :class:`Environment`, so the whole world shares one
timeline and one seeded randomness stream.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.sim.clock import VirtualClock
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import EventHandle, Scheduler


class Environment:
    """Shared simulation context.

    Pass an :class:`~repro.obs.runtime.Observability` as *observer* to
    instrument every layer built on this environment; the default is the
    shared no-op :data:`~repro.obs.observer.NULL_OBSERVER`, which keeps
    uninstrumented runs essentially free.
    """

    def __init__(
        self,
        seed: int = 0,
        start_time: float = 0.0,
        observer: Optional[Observer] = None,
    ) -> None:
        self.clock = VirtualClock(start_time)
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.observer.attach(self)
        self.scheduler = Scheduler(self.clock, observer=self.observer)
        self.rng = DeterministicRandom(seed)

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def run_for(self, duration: float) -> int:
        """Advance the world by *duration* virtual seconds."""
        return self.scheduler.run_for(duration)

    def run_until(self, time: float) -> int:
        """Advance the world to absolute *time*."""
        return self.scheduler.run_until(time)

    # -- scheduling shortcuts ---------------------------------------------

    def after(self, delay: float, callback) -> EventHandle:
        return self.scheduler.after(delay, callback)

    def every(self, interval: float, callback, start_delay: Optional[float] = None) -> EventHandle:
        return self.scheduler.every(interval, callback, start_delay=start_delay)

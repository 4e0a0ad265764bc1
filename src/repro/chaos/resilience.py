"""Client resilience: retries, backoff, timeouts and circuit breaking.

The paper's devices reconnect on a fixed heartbeat and give up on the
first network error; under injected faults that wedges shadows offline
for whole sweep periods.  This module packages the standard survival
kit:

* :class:`RetryPolicy` — exponential backoff with jitter and an
  optional per-request timeout, expressed declaratively so a schedule
  can be derived (and asserted deterministic) without sending anything;
* :class:`CircuitBreaker` — a small closed/open/half-open breaker over
  the virtual clock, so a device facing a dead cloud stops hammering it
  and probes again after a cooldown;
* :class:`ResilientClient` — wraps ``network.request`` for one node:
  retries network-level failures per policy, feeds the breaker, and
  reports every retry/giveup/short-circuit through the observer seam.

Backoff delays are *modelled*: requests in this simulation are
synchronous, so a retry happens immediately in wall time while the drawn
delay is accumulated in :attr:`ResilientClient.stats` and the
``resilience.backoff`` histogram (``docs/chaos.md`` discusses the
virtual-latency model).  All jitter draws come from a client-local
forked RNG, keeping retry schedules bit-identical across same-seed
reruns and out of the world's main draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.errors import NetworkError, RequestRejected
from repro.core.messages import Message
from repro.sim.rand import DeterministicRandom


class CircuitOpen(NetworkError):
    """A request was short-circuited by an open circuit breaker."""


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry/backoff/timeout behaviour for one client.

    ``max_attempts`` counts the initial try; ``delay(n, rng)`` is the
    backoff before retry *n* (1-based): ``base_delay * multiplier**(n-1)``
    capped at ``max_delay``, then jittered by up to ±``jitter`` fraction.
    ``timeout`` (if set) is passed to the network so injected latency
    above it fails the attempt with a
    :class:`~repro.core.errors.RequestTimeout`.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 15.0
    jitter: float = 0.25
    timeout: Optional[float] = None

    def delay(self, attempt: int, rng: DeterministicRandom) -> float:
        """The backoff before retry *attempt* (1-based), jittered."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter > 0.0:
            raw *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(0.0, raw)

    def schedule(self, rng: DeterministicRandom) -> List[float]:
        """The full backoff schedule one exhausted request would draw.

        Deterministic for a given RNG state — the property the chaos
        test-suite pins down across same-seed reruns.
        """
        return [self.delay(attempt, rng) for attempt in range(1, self.max_attempts)]


#: Single attempt, no timeout: behaves exactly like a bare request.
NO_RETRY = RetryPolicy(max_attempts=1, jitter=0.0)

#: The default survival kit chaos campaigns install on devices and apps.
DEFAULT_RESILIENCE = RetryPolicy(
    max_attempts=4, base_delay=0.5, multiplier=2.0, max_delay=15.0,
    jitter=0.25, timeout=5.0,
)


class CircuitBreaker:
    """A minimal closed/open/half-open breaker over virtual time.

    ``failure_threshold`` consecutive network failures open the breaker;
    while open, :meth:`allow` refuses traffic until ``cooldown`` virtual
    seconds pass, then one half-open probe is let through — success
    closes the breaker, failure re-opens it for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 5, cooldown: float = 30.0) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        #: How many times the breaker has tripped open (monotonic).
        self.opened_total = 0

    @property
    def state(self) -> str:
        """The breaker's current state name."""
        return self._state

    def allow(self, now: float) -> bool:
        """Whether a request may go out at time *now*."""
        if self._state == self.OPEN:
            if self._opened_at is not None and now - self._opened_at >= self.cooldown:
                self._state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self, now: float) -> None:
        """A request got through: reset failures, close the breaker."""
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = None

    def record_failure(self, now: float) -> None:
        """A network-level failure: count it, trip if over threshold."""
        if self._state == self.HALF_OPEN:
            self._trip(now)
            return
        self._failures += 1
        if self._state == self.CLOSED and self._failures >= self.failure_threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        """Open the breaker and start the cooldown window."""
        self._state = self.OPEN
        self._opened_at = now
        self._failures = 0
        self.opened_total += 1


class ResilientClient:
    """Retrying, breaker-guarded wrapper over one node's cloud requests.

    Application-level rejections
    (:class:`~repro.core.errors.RequestRejected`) count as *successful
    delivery* — the network worked; the cloud said no — so they never
    consume retries and they reset the breaker.  Only
    :class:`~repro.core.errors.NetworkError` (loss, partitions,
    brownouts, timeouts, open breaker downstream) is retried.
    """

    def __init__(
        self,
        network: Any,
        node_name: str,
        policy: RetryPolicy,
        rng: DeterministicRandom,
        breaker: Optional[CircuitBreaker] = None,
        role: str = "client",
    ) -> None:
        self.network = network
        self.node_name = node_name
        self.policy = policy
        self.rng = rng
        self.breaker = breaker
        self.role = role
        #: attempts/retries/giveups/short_circuits plus modelled backoff.
        self.stats: Dict[str, float] = {
            "attempts": 0,
            "retries": 0,
            "giveups": 0,
            "short_circuits": 0,
            "backoff_seconds": 0.0,
        }

    def request(self, dst: str, message: Message, encrypted: bool = True) -> Message:
        """Send *message* to *dst* with retries/backoff/breaker applied."""
        env = self.network.env
        observer = env.observer
        if self.breaker is not None and not self.breaker.allow(env.now):
            self.stats["short_circuits"] += 1
            observer.count("resilience.short_circuits", role=self.role)
            raise CircuitOpen(
                f"{self.node_name!r}: circuit open, not calling {dst!r}"
            )
        last_error: Optional[NetworkError] = None
        try:
            for attempt in range(1, self.policy.max_attempts + 1):
                if attempt > 1:
                    delay = self.policy.delay(attempt - 1, self.rng)
                    self.stats["retries"] += 1
                    self.stats["backoff_seconds"] += delay
                    observer.count("resilience.retries", role=self.role)
                    observer.observe("resilience.backoff", delay)
                self.stats["attempts"] += 1
                try:
                    response = self.network.request(
                        self.node_name, dst, message, encrypted=encrypted,
                        timeout=self.policy.timeout,
                    )
                except RequestRejected:
                    # Delivered and answered: the breaker sees a healthy link.
                    if self.breaker is not None:
                        self.breaker.record_success(env.now)
                    raise
                except NetworkError as exc:
                    last_error = exc
                    if self.breaker is not None:
                        was_open = self.breaker.state == CircuitBreaker.OPEN
                        self.breaker.record_failure(env.now)
                        if not was_open and self.breaker.state == CircuitBreaker.OPEN:
                            observer.count("resilience.breaker_opened", role=self.role)
                    continue
                if self.breaker is not None:
                    self.breaker.record_success(env.now)
                return response
            self.stats["giveups"] += 1
            observer.count("resilience.giveups", role=self.role)
            assert last_error is not None  # max_attempts >= 1 guarantees a cause
            raise last_error
        finally:
            # A kept error's traceback holds this frame, whose local holds
            # the error: clear it on every exit so no cycle outlives the
            # call (the idiom of concurrent.futures.Future.result).
            last_error = None

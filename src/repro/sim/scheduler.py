"""Deterministic discrete-event scheduler.

A minimal priority-queue event loop: callbacks are executed in
timestamp order, ties broken by insertion order, so every run of a
scenario is bit-for-bit reproducible.  Periodic events (device
heartbeats, the cloud's liveness sweep) are built from one-shot events
that re-schedule themselves.

The heap stores ``(time, seq, entry)`` tuples so that ordering is
decided by C-level tuple comparison — the entry itself is a plain
``__slots__`` record and never participates in comparisons.  The
``run_until`` inner loop pops all live entries that share a timestamp
as one batch, advancing the clock once per distinct timestamp instead
of once per event.

Cancelled entries are lazily discarded when popped, but a long campaign
that cancels far more than it fires (e.g. a DoS sweep re-arming timers)
would otherwise grow the heap without bound — so whenever cancelled
entries exceed half the queue the heap is *compacted* in place.
Compaction never changes execution order: heap items are totally
ordered by ``(time, seq)``, so re-heapifying the survivors pops
identically.  Compaction mutates the queue list in place (rather than
rebinding it) so the hot loop's local alias stays valid even when a
callback cancels enough events to trigger a compaction mid-run.

The scheduler reports batch sizes, queue depth and compactions to an
:class:`~repro.obs.observer.Observer`; when the installed observer is
:data:`~repro.obs.observer.NULL_OBSERVER` the hot path skips the
``profile()``/``on_scheduler_flush`` calls entirely via a precomputed
boolean instead of paying a no-op call per flush.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.sim.clock import VirtualClock

Callback = Callable[[], None]

#: Queues smaller than this are never compacted (not worth the sweep).
COMPACT_MIN_QUEUE = 64


class _Entry:
    """One scheduled callback; ordering lives in the heap tuple, not here."""

    __slots__ = ("time", "seq", "callback", "cancelled", "in_heap")

    def __init__(self, time: float, seq: int, callback: Callback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.in_heap = True


#: Heap item: ``(time, seq, entry)`` — compared left-to-right by C code;
#: ``seq`` is unique so the entry itself is never compared.
_HeapItem = Tuple[float, int, _Entry]


class EventHandle:
    """Handle to a scheduled event; allows cancellation."""

    __slots__ = ("_entry", "_scheduler")

    def __init__(self, entry: _Entry, scheduler: Optional["Scheduler"] = None) -> None:
        self._entry = entry
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        entry = self._entry
        if entry.cancelled:
            return
        entry.cancelled = True
        if self._scheduler is not None and entry.in_heap:
            self._scheduler._note_cancel()

    @property
    def time(self) -> float:
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled


class RepeatingHandle(EventHandle):
    """Handle to a periodic chain; always tracks the *pending* firing.

    :meth:`Scheduler.every` chains one-shot events, so a plain
    :class:`EventHandle` to the first event goes stale as soon as it
    fires — its ``time`` freezes and ``cancel`` stops nothing.  This
    handle reads through to whichever entry is currently scheduled:
    ``time`` is the chain's next firing (what the warm-start capture
    records as the phase to re-arm with) and ``cancel`` both cancels
    that entry and stops the chain from re-arming.
    """

    __slots__ = ("_state",)

    def __init__(self, state: dict) -> None:
        self._state = state

    def cancel(self) -> None:
        """Stop the chain: cancel the pending firing, never re-arm."""
        self._state["stopped"] = True
        self._state["handle"].cancel()

    @property
    def time(self) -> float:
        return self._state["handle"].time

    @property
    def cancelled(self) -> bool:
        return self._state["stopped"]


class Scheduler:
    """Priority-queue event loop over a :class:`VirtualClock`."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._queue: List[_HeapItem] = []
        self._counter = itertools.count()
        self._cancelled = 0
        #: how many times the heap has been compacted (exposed as a gauge)
        self.compactions = 0
        self._observer = observer if observer is not None else NULL_OBSERVER
        self._observed = self._observer is not NULL_OBSERVER

    def __len__(self) -> int:
        return len(self._queue) - self._cancelled

    def at(self, time: float, callback: Callback) -> EventHandle:
        """Schedule *callback* at absolute simulation *time*."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule in the past (t={time} < now={self.clock.now})"
            )
        entry = _Entry(time, next(self._counter), callback)
        heapq.heappush(self._queue, (entry.time, entry.seq, entry))
        return EventHandle(entry, self)

    def after(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule *callback* after *delay* virtual seconds."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.at(self.clock.now + delay, callback)

    def every(self, interval: float, callback: Callback, start_delay: Optional[float] = None) -> "RepeatingHandle":
        """Schedule *callback* periodically; returns the chain's handle.

        The returned :class:`RepeatingHandle` follows the chain: its
        ``time`` is always the next pending firing and cancelling it
        stops the chain for good.  ``start_delay`` offsets the first
        firing from now (default: one full *interval*) — the warm-start
        restore path uses it to re-arm a captured chain at exactly the
        phase it had.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        first_delay = interval if start_delay is None else start_delay

        state: dict = {"handle": None, "stopped": False}

        def tick() -> None:
            callback()
            if not state["stopped"]:
                state["handle"] = self.after(interval, tick)

        state["handle"] = self.after(first_delay, tick)
        return RepeatingHandle(state)

    # -- cancelled-entry bookkeeping ------------------------------------------

    def _note_cancel(self) -> None:
        """Count one cancellation; compact when the heap is mostly dead."""
        self._cancelled += 1
        if (
            len(self._queue) >= COMPACT_MIN_QUEUE
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors in place."""
        queue = self._queue
        live = [item for item in queue if not item[2].cancelled]
        removed = len(queue) - len(live)
        for item in queue:
            entry = item[2]
            if entry.cancelled:
                entry.in_heap = False
        heapq.heapify(live)
        # In-place so hot-loop aliases of the queue list stay valid.
        queue[:] = live
        self._cancelled = 0
        self.compactions += 1
        self._observer.on_compaction(removed, self.compactions)

    # -- execution -------------------------------------------------------------

    def _pending_at_or_before(self, time: float) -> bool:
        """True iff a live (uncancelled) event is due at or before *time*."""
        while self._queue and self._queue[0][2].cancelled:
            entry = heapq.heappop(self._queue)[2]
            entry.in_heap = False
            self._cancelled -= 1
        return bool(self._queue) and self._queue[0][0] <= time

    def run_until(self, time: float, max_events: int = 1_000_000) -> int:
        """Run all events with timestamp <= *time*; returns events run.

        The clock ends exactly at *time* even if the queue drains early.
        Raises only when the event budget is exhausted *and* a live event
        at or before *time* is still pending (a genuine livelock); a run
        that happens to execute exactly ``max_events`` events and then
        drains, or leaves only events past *time*, completes normally.

        Entries sharing a timestamp are popped as one batch so the clock
        advances once per distinct timestamp.  A callback that cancels a
        later event in the same batch still wins: cancellation is
        re-checked immediately before each callback runs.  A callback
        that *schedules* at the current timestamp gets a larger ``seq``,
        lands in the next batch, and runs after the current one — the
        same order the one-at-a-time loop produced.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        advance = self.clock.advance_to
        observed = self._observed
        cm = self._observer.profile("scheduler.run") if observed else None
        if cm is not None:
            cm.__enter__()
        try:
            while queue and executed < max_events:
                when = queue[0][0]
                if when > time:
                    break
                # Pop every entry sharing this timestamp (within budget).
                batch: List[_Entry] = []
                room = max_events - executed
                while queue and queue[0][0] == when and len(batch) < room:
                    entry = pop(queue)[2]
                    entry.in_heap = False
                    if entry.cancelled:
                        self._cancelled -= 1
                    else:
                        batch.append(entry)
                if not batch:
                    continue
                advance(when)
                for entry in batch:
                    if entry.cancelled:  # cancelled by an earlier callback
                        continue
                    entry.callback()
                    executed += 1
        finally:
            if cm is not None:
                cm.__exit__(None, None, None)
        if observed:
            self._observer.on_scheduler_flush(executed, len(self))
        if executed >= max_events and self._pending_at_or_before(time):
            raise SimulationError("event budget exhausted; livelock suspected")
        if time > self.clock.now:
            self.clock.advance_to(time)
        return executed

    def run_for(self, duration: float, max_events: int = 1_000_000) -> int:
        """Run all events within the next *duration* virtual seconds."""
        return self.run_until(self.clock.now + duration, max_events=max_events)

"""Tests for the simulation kernel: clock, scheduler, RNG, environment."""

import pytest

from repro.core.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.environment import Environment
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import Scheduler


class TestClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_to_and_by(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_by(2.5)
        assert clock.now == 7.5

    def test_time_never_goes_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.0)
        with pytest.raises(SimulationError):
            clock.advance_by(-1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            VirtualClock(-1.0)


class TestScheduler:
    def test_events_run_in_time_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.at(3.0, lambda: order.append("c"))
        scheduler.at(1.0, lambda: order.append("a"))
        scheduler.at(2.0, lambda: order.append("b"))
        scheduler.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.at(1.0, lambda: order.append("first"))
        scheduler.at(1.0, lambda: order.append("second"))
        scheduler.run_until(1.0)
        assert order == ["first", "second"]

    def test_run_until_advances_clock_even_when_idle(self):
        scheduler = Scheduler()
        scheduler.run_until(42.0)
        assert scheduler.clock.now == 42.0

    def test_run_until_does_not_run_future_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(5.0, lambda: fired.append(1))
        scheduler.run_until(4.9)
        assert not fired
        scheduler.run_until(5.0)
        assert fired

    def test_after_is_relative(self):
        scheduler = Scheduler()
        scheduler.run_until(10.0)
        times = []
        scheduler.after(2.0, lambda: times.append(scheduler.clock.now))
        scheduler.run_for(3.0)
        assert times == [12.0]

    def test_cancel_prevents_firing(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.at(1.0, lambda: fired.append(1))
        handle.cancel()
        scheduler.run_until(2.0)
        assert not fired
        assert handle.cancelled

    def test_every_repeats_until_cancelled(self):
        scheduler = Scheduler()
        ticks = []
        scheduler.every(1.0, lambda: ticks.append(scheduler.clock.now))
        scheduler.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_every_with_start_delay(self):
        scheduler = Scheduler()
        ticks = []
        scheduler.every(2.0, lambda: ticks.append(scheduler.clock.now), start_delay=0.5)
        scheduler.run_until(5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_scheduling_in_the_past_rejected(self):
        scheduler = Scheduler()
        scheduler.run_until(5.0)
        with pytest.raises(SimulationError):
            scheduler.at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            scheduler.after(-1.0, lambda: None)

    def test_livelock_guard(self):
        scheduler = Scheduler()

        def respawn():
            scheduler.after(0.0, respawn)

        scheduler.after(0.0, respawn)
        with pytest.raises(SimulationError):
            scheduler.run_until(1.0, max_events=100)

    def test_budget_hit_exactly_at_drain_is_not_livelock(self):
        scheduler = Scheduler()
        fired = []
        for i in range(5):
            scheduler.at(float(i), lambda i=i: fired.append(i))
        scheduler.run_until(10.0, max_events=5)  # budget == events: fine
        assert fired == [0, 1, 2, 3, 4]

    def test_budget_hit_with_only_future_events_is_not_livelock(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(1.0, lambda: fired.append(1))
        scheduler.at(50.0, lambda: fired.append(50))  # beyond the horizon
        scheduler.run_until(2.0, max_events=1)
        assert fired == [1]

    def test_budget_hit_with_pending_cancelled_event_is_not_livelock(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(1.0, lambda: fired.append(1))
        handle = scheduler.at(1.5, lambda: fired.append(15))
        handle.cancel()
        scheduler.run_until(2.0, max_events=1)
        assert fired == [1]

    def test_len_counts_pending_uncancelled(self):
        scheduler = Scheduler()
        handle = scheduler.at(1.0, lambda: None)
        scheduler.at(2.0, lambda: None)
        assert len(scheduler) == 2
        handle.cancel()
        assert len(scheduler) == 1


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a, b = DeterministicRandom(7), DeterministicRandom(7)
        assert [a.token() for _ in range(5)] == [b.token() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert DeterministicRandom(1).token() != DeterministicRandom(2).token()

    def test_fork_is_stable_and_independent(self):
        a = DeterministicRandom(7).fork("device")
        b = DeterministicRandom(7).fork("device")
        c = DeterministicRandom(7).fork("other")
        assert a.token() == b.token()
        assert a.token(16) != c.token(16) or True  # independence is statistical

    def test_hex_string_format(self):
        value = DeterministicRandom(0).hex_string(12)
        assert len(value) == 12
        assert all(ch in "0123456789abcdef" for ch in value)

    def test_mac_suffix_format(self):
        suffix = DeterministicRandom(0).mac_suffix()
        parts = suffix.split(":")
        assert len(parts) == 3
        assert all(len(p) == 2 for p in parts)

    def test_serial_digits(self):
        serial = DeterministicRandom(0).serial_digits(6)
        assert len(serial) == 6 and serial.isdigit()


class TestEnvironment:
    def test_shares_clock_between_scheduler_and_env(self):
        env = Environment(seed=1)
        env.after(3.0, lambda: None)
        env.run_for(5.0)
        assert env.now == 5.0

    def test_run_until_absolute(self):
        env = Environment()
        env.run_until(8.0)
        assert env.now == 8.0

    def test_every_shortcut(self):
        env = Environment()
        ticks = []
        env.every(2.0, lambda: ticks.append(env.now))
        env.run_for(6.5)
        assert ticks == [2.0, 4.0, 6.0]


class TestHeapCompaction:
    """Edge cases of the lazy-discard + in-place compaction machinery.

    The scheduler compacts its heap whenever cancelled entries outnumber
    live ones (above COMPACT_MIN_QUEUE); these tests pin the boundary
    behaviours the hot loop depends on: cancellation of already-popped
    entries, re-entrant cancellation from inside callbacks, and ``len``
    staying truthful across a mid-run compaction.
    """

    def test_cancel_of_batched_sibling_wins(self):
        # Five events share one timestamp; the first cancels the fourth
        # *after* the whole batch was popped off the heap.
        scheduler = Scheduler()
        fired = []
        handles = {}

        def first():
            fired.append("first")
            handles["fourth"].cancel()

        scheduler.at(1.0, first)
        scheduler.at(1.0, lambda: fired.append("second"))
        scheduler.at(1.0, lambda: fired.append("third"))
        handles["fourth"] = scheduler.at(1.0, lambda: fired.append("fourth"))
        scheduler.at(1.0, lambda: fired.append("fifth"))
        assert scheduler.run_until(2.0) == 4
        assert fired == ["first", "second", "third", "fifth"]
        # The cancelled entry was already out of the heap, so it must not
        # count toward the lazy-discard backlog.
        assert scheduler._cancelled == 0
        assert len(scheduler) == 0

    def test_cancel_after_fire_is_noop(self):
        scheduler = Scheduler()
        handle = scheduler.at(1.0, lambda: None)
        scheduler.run_until(1.0)
        handle.cancel()
        handle.cancel()
        assert scheduler._cancelled == 0
        assert len(scheduler) == 0

    def test_small_queues_never_compact(self):
        from repro.sim.scheduler import COMPACT_MIN_QUEUE

        scheduler = Scheduler()
        count = COMPACT_MIN_QUEUE - 1
        handles = [scheduler.at(float(i + 1), lambda: None) for i in range(count)]
        for handle in handles[1:]:
            handle.cancel()
        assert scheduler.compactions == 0
        assert len(scheduler) == 1
        assert scheduler.run_until(float(count)) == 1

    def test_mass_cancel_triggers_compaction(self):
        from repro.sim.scheduler import COMPACT_MIN_QUEUE

        scheduler = Scheduler()
        total = COMPACT_MIN_QUEUE * 2
        handles = [scheduler.at(float(i + 1), lambda: None) for i in range(total)]
        doomed = handles[: total // 2 + 1]
        for handle in doomed:
            handle.cancel()
        assert scheduler.compactions == 1
        assert len(scheduler._queue) == total - len(doomed)  # physically removed
        assert len(scheduler) == total - len(doomed)
        assert scheduler.run_until(float(total)) == total - len(doomed)

    def test_cancel_during_callback_compacts_mid_run(self):
        # A callback cancels enough future events to trigger compaction
        # while run_until's hot loop holds a local alias of the queue;
        # in-place compaction keeps that alias valid and ordering intact.
        scheduler = Scheduler()
        fired = []
        survivors = []
        doomed = []
        len_inside = []

        def reap():
            fired.append("reap")
            for handle in doomed:
                handle.cancel()
            len_inside.append(len(scheduler))

        scheduler.at(1.0, reap)
        for i in range(200):
            handle = scheduler.at(2.0 + i, lambda i=i: fired.append(i))
            if i % 4 == 0:
                survivors.append(i)
            else:
                doomed.append(handle)
        assert scheduler.compactions == 0
        executed = scheduler.run_until(500.0)
        assert scheduler.compactions >= 1
        assert fired == ["reap"] + survivors
        assert executed == 1 + len(survivors)
        # len() observed inside the cancelling callback already excluded
        # every cancelled entry, compacted or not.
        assert len_inside == [len(survivors)]
        assert len(scheduler) == 0

    def test_repeating_chain_survives_compaction(self):
        from repro.sim.scheduler import COMPACT_MIN_QUEUE

        scheduler = Scheduler()
        ticks = []
        repeating = scheduler.every(1.0, lambda: ticks.append(scheduler.clock.now))
        handles = [
            scheduler.at(100.0 + i, lambda: None)
            for i in range(COMPACT_MIN_QUEUE * 2)
        ]
        for handle in handles:
            handle.cancel()
        assert scheduler.compactions >= 1
        scheduler.run_until(5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
        repeating.cancel()
        scheduler.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

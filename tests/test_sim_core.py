"""Kernel semantics: clock, event lifecycle, scheduling order."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.core import all_processed


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_exactly_to_until(self, sim):
        sim.timeout(0.25)
        sim.run(until=1.0)
        assert sim.now == 1.0

    def test_run_until_past_is_rejected(self, sim):
        sim.timeout(5.0)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_without_until_drains_queue(self, sim):
        sim.timeout(3.0)
        sim.run()
        assert sim.now == 3.0
        assert sim.pending_events() == 0

    def test_events_beyond_until_stay_queued(self, sim):
        sim.timeout(5.0)
        sim.run(until=1.0)
        assert sim.pending_events() == 1
        assert sim.peek() == 5.0

    def test_peek_empty_queue_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_trigger_then_run_processes(self, sim):
        ev = sim.event()
        ev.trigger("payload")
        assert ev.triggered and not ev.processed
        sim.run()
        assert ev.processed
        assert ev.value == "payload"

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_fail_then_value_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        sim.run()
        with pytest.raises(ValueError, match="boom"):
            _ = ev.value

    def test_fail_requires_exception_instance(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_ok_reflects_success(self, sim):
        good, bad = sim.event(), sim.event()
        good.trigger(1)
        bad.fail(RuntimeError())
        assert good.ok
        assert not bad.ok

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.trigger(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_delayed_trigger(self, sim):
        ev = sim.event()
        ev.trigger("late", delay=2.5)
        times = []
        ev.add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [2.5]


class TestOrdering:
    def test_fifo_among_equal_times(self, sim):
        order = []
        for label in "abc":
            sim.schedule_call(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_time_order_respected(self, sim):
        order = []
        sim.schedule_call(2.0, order.append, "late")
        sim.schedule_call(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.1, lambda: None)

    def test_timeout_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_step_processes_one_event(self, sim):
        hits = []
        sim.schedule_call(1.0, hits.append, 1)
        sim.schedule_call(2.0, hits.append, 2)
        sim.step()
        assert hits == [1]
        assert sim.now == 1.0


class TestRunGuards:
    def test_run_until_idle_counts_events(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        assert sim.run_until_idle() == 5

    def test_run_until_idle_guard_trips(self, sim):
        def forever():
            while True:
                yield sim.timeout(1.0)

        sim.process(forever())
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=50)

    def test_all_processed_helper(self, sim):
        events = [sim.timeout(1.0), sim.timeout(2.0)]
        assert not all_processed(events)
        sim.run()
        assert all_processed(events)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace():
            sim = Simulator()
            log = []

            def proc(name, period):
                while sim.now < 1.0:
                    yield sim.timeout(period)
                    log.append((round(sim.now, 9), name))

            sim.process(proc("a", 0.13))
            sim.process(proc("b", 0.07))
            sim.run(until=1.0)
            return log

        assert trace() == trace()


class TestSchedulerOrder:
    """The queue pops in ``(time, scheduling order)`` for any schedule."""

    @staticmethod
    def _pop_order(times):
        sim = Simulator()
        order = []
        for label, t in enumerate(times):
            sim.schedule_call(t, order.append, (t, label))
        sim.run()
        return order

    def test_same_timestamp_fifo_order(self):
        times = [1.0, 1.0, 0.5, 1.0, 0.5, 2.0, 1.0]
        assert self._pop_order(times) == [
            (0.5, 2), (0.5, 4), (1.0, 0), (1.0, 1), (1.0, 3), (1.0, 6),
            (2.0, 5),
        ]

    def test_far_future_events_pop_in_time_order(self):
        times = [1e-6, 5.0, 1e-6, 12_000.0, 3.0, 5.0, 0.0, 7e5, 12_000.0]
        assert self._pop_order(times) == [
            (0.0, 6), (1e-6, 0), (1e-6, 2), (3.0, 4), (5.0, 1), (5.0, 5),
            (12_000.0, 3), (12_000.0, 8), (7e5, 7),
        ]

    def test_unsorted_schedule_pops_sorted(self):
        times = [0.3, 0.1, 0.2, 0.1, 0.4]
        assert self._pop_order(times) == [
            (0.1, 1), (0.1, 3), (0.2, 2), (0.3, 0), (0.4, 4),
        ]

    def test_far_event_interleaves_self_scheduled_ticks(self):
        # Callbacks keep scheduling near events while one far event,
        # scheduled from inside a callback, comes due mid-stream.
        sim = Simulator()
        log = []

        def tick(n):
            log.append(("tick", round(sim.now, 9)))
            if n:
                sim.schedule_call(2e-3, tick, n - 1)
            if n == 18:
                sim.schedule_call(21e-3, log.append, ("far", 1))

        sim.schedule_call(0.0, tick, 20)
        sim.run()
        ticks = [("tick", round(2e-3 * i, 9)) for i in range(21)]
        assert log == ticks[:13] + [("far", 1)] + ticks[13:]
        assert sim.events_processed == 22

    def test_run_until_leaves_future_events_queued(self):
        sim = Simulator()
        hits = []
        sim.schedule_call(1.0, hits.append, "near")
        sim.schedule_call(100.0, hits.append, "far")
        sim.run(until=2.0)
        assert hits == ["near"]
        assert sim.now == 2.0
        assert sim.pending_events() == 1


class TestCancellation:
    def test_cancelled_timeout_never_fires(self, sim):
        hits = []
        doomed = sim.timeout(1.0)
        doomed.add_callback(lambda ev: hits.append("doomed"))
        sim.schedule_call(2.0, hits.append, "kept")
        doomed.cancel()
        sim.run()
        assert hits == ["kept"]
        assert doomed.cancelled and not doomed.processed

    def test_cancelled_entry_does_not_advance_clock_or_count(self, sim):
        sim.timeout(5.0).cancel()
        sim.schedule_call(1.0, lambda: None)
        assert sim.run_until_idle() == 1
        assert sim.now == 1.0
        assert sim.events_processed == 1

    def test_cancel_is_idempotent_but_processed_is_final(self, sim):
        ev = sim.timeout(1.0)
        ev.cancel()
        ev.cancel()  # no-op
        done = sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            done.cancel()

    def test_cancelled_event_rejects_trigger_and_fail(self, sim):
        from repro.sim.core import Event

        ev = Event(sim)
        ev.cancel()
        assert not ev.triggered
        with pytest.raises(SimulationError):
            ev.trigger(1)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_cancelled_entries_are_skipped_in_order(self):
        sim = Simulator()
        log = []
        victims = [sim.timeout(t) for t in (0.2, 0.4, 0.4, 0.9)]
        for t in (0.1, 0.4, 0.5, 0.9):
            sim.schedule_call(t, log.append, t)
        for victim in victims:
            victim.cancel()
        sim.run()
        assert log == [0.1, 0.4, 0.5, 0.9]
        assert sim.now == 0.9
        assert sim.events_processed == 4

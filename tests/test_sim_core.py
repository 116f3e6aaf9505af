"""Kernel semantics: clock, event lifecycle, scheduling order."""

import pytest

from repro.atm.link import STS3C_155, LinkSpec, PhysicalLink
from repro.host import BusSpec, CpuSpec, DmaSpec, HostCpu, InterruptSpec
from repro.host.cpu import R3000_25MHZ
from repro.nic.costs import Charge, EngineSpec
from repro.nic.engine import EngineClock
from repro.sim import SimulationError, Simulator
from repro.sim.core import URGENT, Event

NAN = float("nan")


def _idle() -> None:
    """A continuation that does nothing."""


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

    # NaN fails every ``x < 0`` test, so each of these once took it and
    # queued an entry at time NaN: it stayed at the heap's head, nothing
    # after it fired, and run() returned as if idle.
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda sim: sim.schedule_call(NAN, _idle), id="schedule_call"),
            pytest.param(lambda sim: sim.event().trigger(delay=NAN), id="trigger"),
            pytest.param(lambda sim: sim.timeout(NAN), id="Timeout"),
            pytest.param(
                lambda sim: HostCpu(sim, R3000_25MHZ).execute_then(NAN, "t", _idle),
                id="execute_then",
            ),
            pytest.param(lambda sim: R3000_25MHZ.seconds_for(NAN), id="cpu-seconds_for"),
            pytest.param(lambda sim: CpuSpec("c", NAN), id="cpu-clock"),
            pytest.param(lambda sim: CpuSpec("c", 1e6, NAN), id="cpu-ipc"),
            pytest.param(lambda sim: BusSpec("b", NAN, 4, 6, 128), id="bus-clock"),
            pytest.param(lambda sim: BusSpec("b", 1e6, 4, NAN, 128), id="bus-setup"),
            pytest.param(lambda sim: BusSpec("b", 1e6, 4, 6, NAN), id="bus-burst"),
            pytest.param(lambda sim: DmaSpec(setup_time=NAN), id="dma-setup"),
            pytest.param(lambda sim: DmaSpec(completion_time=NAN), id="dma-completion"),
            pytest.param(lambda sim: InterruptSpec(entry_cycles=NAN), id="irq-entry"),
            pytest.param(lambda sim: InterruptSpec(exit_cycles=NAN), id="irq-exit"),
            pytest.param(lambda sim: InterruptSpec(coalesce_window=NAN), id="irq-window"),
            pytest.param(lambda sim: EngineSpec("e", NAN), id="engine-clock"),
            pytest.param(
                lambda sim: EngineSpec("e", 25e6).seconds_for(NAN), id="engine-seconds_for"
            ),
            pytest.param(lambda sim: Charge({"op": NAN}, "t", "tx"), id="charge-op"),
            pytest.param(
                lambda sim: EngineClock(sim, EngineSpec("e", 25e6)).request_stall(NAN),
                id="engine-stall",
            ),
            pytest.param(lambda sim: LinkSpec("l", 1e8, NAN), id="link-payload-rate"),
            pytest.param(lambda sim: LinkSpec("l", NAN, 1e8), id="link-line-rate"),
            pytest.param(
                lambda sim: PhysicalLink(sim, STS3C_155, propagation_delay=NAN),
                id="link-propagation",
            ),
        ],
    )
    def test_nan_is_refused_before_it_reaches_the_queue(self, sim, make):
        with pytest.raises((ValueError, SimulationError)):
            make(sim)
        assert sim.pending_events() == 0

    def test_step_processes_one_event(self, sim):
        hits = []
        sim.schedule_call(1.0, hits.append, 1)
        sim.schedule_call(2.0, hits.append, 2)
        sim.step()
        assert hits == [1]
        assert sim.now == 1.0

    def test_step_on_empty_queue_is_rejected(self, sim):
        with pytest.raises(SimulationError, match="empty queue"):
            sim.step()
        sim.schedule_call(1.0, lambda: None)
        sim.step()
        with pytest.raises(SimulationError, match="empty queue"):
            sim.step()
        assert sim.now == 1.0
        assert sim.events_processed == 1


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


class TestBareCalls:
    """``schedule_call`` queues a bare call: one entry, one processed event."""

    @staticmethod
    def _mixed(sim, log):
        """Events, timeouts, a process and bare calls at shared times."""

        def proc():
            yield sim.timeout(1.0)
            log.append(("proc", sim.now))
            sim.schedule_call(0.0, log.append, ("call-from-proc", sim.now))
            yield sim.timeout(0.0)
            log.append(("proc-again", sim.now))

        sim.schedule_call(1.0, log.append, ("call-a", 1.0))
        sim.process(proc())
        ev = sim.event()
        ev.add_callback(lambda _ev: log.append(("event", sim.now)))
        ev.trigger(delay=1.0)
        sim.schedule_call(0.5, log.append, ("call-early", 0.5))
        sim.timeout(2.0).add_callback(lambda _ev: log.append(("timeout", sim.now)))
        sim.schedule_call(1.0, log.append, ("call-b", 1.0))

    @staticmethod
    def _step_all(sim):
        while sim.pending_events():
            sim.step()

    def test_run_idle_and_step_dispatch_the_same(self):
        drivers = {
            "run": lambda sim: sim.run(),
            "run_until_idle": lambda sim: sim.run_until_idle(),
            "step": self._step_all,
        }
        seen = {}
        for name, drive in drivers.items():
            sim = Simulator()
            log = []
            self._mixed(sim, log)
            drive(sim)
            seen[name] = (log, sim.events_processed, sim.now)
        assert seen["run"] == seen["run_until_idle"] == seen["step"]
        log, processed, now = seen["run"]
        assert log == [
            ("call-early", 0.5),
            ("call-a", 1.0),
            ("event", 1.0),
            ("call-b", 1.0),
            ("proc", 1.0),
            ("call-from-proc", 1.0),
            ("proc-again", 1.0),
            ("timeout", 2.0),
        ]
        # Four bare calls, the event, the timeout, the process start,
        # its two timeouts and its completion.
        assert processed == 10
        assert now == 2.0

    def test_run_until_idle_counts_bare_calls(self, sim):
        for t in (0.3, 0.1, 0.2):
            sim.schedule_call(t, lambda: None)
        assert sim.run_until_idle() == 3


class TestUrgentOrder:
    """At one instant URGENT entries run first; each class is FIFO."""

    @staticmethod
    def _urgent_event(sim, log, label, delay=0.0):
        # As a process queues its start: a triggered event, URGENT.
        ev = sim.event()
        ev.add_callback(lambda _ev: log.append(label))
        ev._state = Event._TRIGGERED
        sim._schedule(delay, ev, priority=URGENT)

    def _interleaved(self, sim, log):
        """NORMAL and URGENT bare calls and events queued alternately."""
        sim.schedule_call(0.0, log.append, "normal-call-1")
        sim._call_urgent(log.append, "urgent-call-1")
        ev = sim.event()
        ev.add_callback(lambda _ev: log.append("normal-event-1"))
        ev.trigger()
        self._urgent_event(sim, log, "urgent-event-1")
        sim.schedule_call(0.0, log.append, "normal-call-2")
        sim._call_urgent(log.append, "urgent-call-2")
        self._urgent_event(sim, log, "urgent-event-2")
        sim.timeout(0.0).add_callback(lambda _ev: log.append("normal-event-2"))

    def test_urgent_entries_queued_later_run_first(self):
        for drive in (
            lambda sim: sim.run(),
            lambda sim: sim.run_until_idle(),
            lambda sim: [sim.step() for _ in range(sim.pending_events())],
        ):
            sim = Simulator()
            log = []
            self._interleaved(sim, log)
            drive(sim)
            assert log == [
                "urgent-call-1",
                "urgent-event-1",
                "urgent-call-2",
                "urgent-event-2",
                "normal-call-1",
                "normal-event-1",
                "normal-call-2",
                "normal-event-2",
            ]
            assert sim.events_processed == 8
            assert sim.now == 0.0

    def test_urgent_entries_queued_inside_an_entry_run_next(self, sim):
        log = []

        def first():
            log.append("first")
            sim.schedule_call(0.0, log.append, "normal-from-first")
            sim._call_urgent(log.append, "urgent-from-first")

        sim.schedule_call(1.0, first)
        sim.schedule_call(1.0, log.append, "second")
        sim.run()
        assert log == [
            "first", "urgent-from-first", "second", "normal-from-first",
        ]

    def test_urgent_entry_at_a_later_instant_does_not_overtake(self, sim):
        log = []
        self._urgent_event(sim, log, ("urgent", 2.0), delay=2.0)
        self._urgent_event(sim, log, ("urgent", 1.0), delay=1.0)
        sim.schedule_call(1.5, log.append, ("normal", 1.5))
        sim.schedule_call(1.0, log.append, ("normal", 1.0))
        sim.schedule_call(0.5, sim._call_urgent, log.append, ("urgent", 0.5))
        sim.run()
        assert log == [
            ("urgent", 0.5),
            ("urgent", 1.0),
            ("normal", 1.0),
            ("normal", 1.5),
            ("urgent", 2.0),
        ]


class TestTimersAmongCells:
    """Events that wait in the timer heap and bare calls that wait in
    the main heap fire in one ``(time, scheduling order)`` sequence."""

    @staticmethod
    def _timer(sim, delay, log, label):
        sim.timeout(delay).callbacks.append(lambda _ev: log.append(label))

    def test_call_at_a_timers_instant_keeps_scheduling_order(self, sim):
        log = []
        sim.schedule_call(1.0, log.append, "call-before")
        self._timer(sim, 1.0, log, "timer")
        sim.schedule_call(1.0, log.append, "call-after")

        def later():
            # Scheduled while the timer is pending: it waits for it.
            log.append("later")
            sim.schedule_call(0.5, log.append, "call-from-later")

        sim.schedule_call(0.5, later)
        sim.run()
        assert log == [
            "later", "call-before", "timer", "call-after", "call-from-later",
        ]

    def test_entries_due_exactly_at_until_run(self, sim):
        log = []
        self._timer(sim, 0.5, log, ("timer", 0.5))
        sim.schedule_call(0.5, log.append, ("call", 0.5))
        self._timer(sim, 2.0, log, ("timer", 2.0))
        sim.schedule_call(1.0, log.append, ("call", 1.0))
        sim.run(until=0.5)
        assert log == [("timer", 0.5), ("call", 0.5)]
        assert (sim.now, sim.pending_events(), sim.peek()) == (0.5, 2, 1.0)
        sim.run(until=1.0)
        assert log[-1] == ("call", 1.0)
        assert (sim.now, sim.pending_events(), sim.peek()) == (1.0, 1, 2.0)
        sim.run(until=2.0)
        assert log[-1] == ("timer", 2.0)
        assert sim.pending_events() == 0

    def test_urgent_entries_at_a_timers_instant_run_first(self, sim):
        log = []

        def proc():
            log.append("process")
            yield sim.timeout(0.0)

        def normal():
            log.append("normal")
            sim._call_urgent(log.append, "urgent-call")
            sim.process(proc())

        sim.schedule_call(1.0, normal)
        self._timer(sim, 1.0, log, "timer")
        sim.run()
        assert log == ["normal", "urgent-call", "process", "timer"]

    def test_timer_schedules_entries_before_the_next_timer(self, sim):
        log = []

        def first(_ev):
            log.append(("first", sim.now))
            sim.schedule_call(0.2, log.append, ("call", 1.2))
            self._timer(sim, 0.2, log, ("inner", 1.2))
            self._timer(sim, 0.5, log, ("inner", 1.5))

        sim.timeout(1.0).callbacks.append(first)
        self._timer(sim, 1.5, log, ("timer", 1.5))
        self._timer(sim, 2.0, log, ("timer", 2.0))
        sim.run()
        assert log == [
            ("first", 1.0),
            ("call", 1.2),
            ("inner", 1.2),
            ("timer", 1.5),
            ("inner", 1.5),
            ("timer", 2.0),
        ]
        assert sim.events_processed == 6

    def test_step_takes_the_earlier_entry(self, sim):
        log = []
        self._timer(sim, 1.0, log, "timer-1")
        sim.schedule_call(0.5, log.append, "call-0.5")
        sim.schedule_call(1.0, log.append, "call-1")
        self._timer(sim, 0.25, log, "timer-0.25")
        self._timer(sim, 3.0, log, "timer-3")
        seen = []
        while sim.pending_events():
            sim.step()
            seen.append((log[-1], sim.now, sim.pending_events(), sim.peek()))
        assert seen == [
            ("timer-0.25", 0.25, 4, 0.5),
            ("call-0.5", 0.5, 3, 1.0),
            ("timer-1", 1.0, 2, 1.0),
            ("call-1", 1.0, 1, 3.0),
            ("timer-3", 3.0, 0, float("inf")),
        ]
        assert sim.peak_queue_occupancy == 5

"""Host CPU cycle accounting and serialization."""

import pytest

from repro.host import CpuSpec, HostCpu, R3000_25MHZ


class TestCpuSpec:
    def test_cycle_time(self):
        spec = CpuSpec("test", clock_hz=25e6)
        assert spec.cycle_time == pytest.approx(40e-9)

    def test_mips_accounts_for_ipc(self):
        assert R3000_25MHZ.mips == pytest.approx(25 * 0.8)

    def test_seconds_for(self):
        spec = CpuSpec("test", clock_hz=10e6)
        assert spec.seconds_for(100) == pytest.approx(10e-6)
        with pytest.raises(ValueError):
            spec.seconds_for(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuSpec("bad", clock_hz=0)
        with pytest.raises(ValueError):
            CpuSpec("bad", clock_hz=1e6, instructions_per_cycle=0)


class TestExecution:
    def test_work_takes_cycle_time(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))
        done = []
        cpu.execute_then(500, "work", lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(500e-6)]

    def test_work_is_serialized(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))
        finish = []
        for _ in range(2):
            cpu.execute_then(100, "work", lambda: finish.append(sim.now))
        sim.run()
        assert finish == [pytest.approx(100e-6), pytest.approx(200e-6)]

    def test_cycles_booked_by_tag(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        # Each item asks for the next once it has run.
        cpu.execute_then(
            100, "driver",
            cpu.execute_then, 50, "driver",
            cpu.execute_then, 30, "app", lambda: None,
        )
        sim.run()
        assert cpu.cycles_for("driver") == 150
        assert cpu.cycles_for("app") == 30
        assert cpu.total_cycles == 180

    def test_utilization(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))
        cpu.execute_then(500, "work", lambda: None)
        sim.run(until=1e-3)
        assert cpu.utilization() == pytest.approx(0.5)

    def test_negative_cycles_rejected(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        with pytest.raises(ValueError):
            cpu.execute_then(-5, "work", lambda: None)

    def test_negative_execute_raises_and_leaves_the_cpu_usable(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))
        done = []
        with pytest.raises(ValueError):
            cpu.execute_then(-5, "work", lambda: None)
        cpu.execute_then(100, "work", lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(100e-6)]
        assert cpu.total_cycles == 100

    def test_contending_calls_served_fifo_with_same_books(self, sim):
        spec = CpuSpec("t", clock_hz=1e6)
        cpu = HostCpu(sim, spec)
        finish = []
        jobs = (("a", 300, "x"), ("b", 100, "y"), ("c", 200, "x"))
        for name, cycles, tag in jobs:
            cpu.execute_then(
                cycles, tag, lambda name: finish.append((name, sim.now)), name
            )
        sim.run()
        assert [name for name, _ in finish] == ["a", "b", "c"]
        a = spec.seconds_for(300)
        b = spec.seconds_for(100)
        c = spec.seconds_for(200)
        assert [t for _, t in finish] == [a, a + b, a + b + c]
        assert cpu.cycles_by_tag == {"x": 500.0, "y": 100.0}
        assert list(cpu.cycles_by_tag) == ["x", "y"]
        assert cpu.busy_time == a + b + c
        assert cpu.queue_length == 0

    def test_caller_resumes_after_same_instant_entries_queued_first(self, sim):
        # The CPU finishes work in its own timed entry, then calls the
        # caller back from a zero-delay entry of its own: anything
        # already queued for that instant (here a call queued after the
        # work started) runs before the caller continues.
        spec = CpuSpec("t", clock_hz=1e6)
        cpu = HostCpu(sim, spec)
        log = []
        cpu.execute_then(100, "work", lambda: log.append(("caller", sim.now)))
        sim.schedule_call(spec.seconds_for(100), log.append, ("other", None))
        sim.run()
        assert [who for who, _ in log] == ["other", "caller"]

    def test_each_form_continues_from_one_completion_entry(self, sim):
        # Each work item is one timed entry plus one zero-delay completion
        # entry, and the caller continues inside the latter -- as does a
        # process that handed the CPU an event's trigger, one entry later.
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))
        log = []
        cpu.execute_then(
            100, "work", lambda: log.append(("then", sim.events_processed))
        )

        def body():
            done = sim.event()
            cpu.execute_then(100, "work", done.trigger)
            yield done
            log.append(("event", sim.events_processed))

        sim.process(body())
        sim.run()
        # Entries: process start, work 1 done, its completion (then),
        # work 2 done, its completion (trigger), the event.
        assert log == [("then", 3), ("event", 6)]

    def test_queue_length_visible(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e3))  # slow
        for _ in range(3):
            cpu.execute_then(1000, "work", lambda: None)
        sim.run(until=0.1)
        assert cpu.queue_length == 2

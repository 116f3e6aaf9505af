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

        def body():
            yield cpu.execute(500, tag="work")
            done.append(sim.now)

        sim.process(body())
        sim.run()
        assert done == [pytest.approx(500e-6)]

    def test_work_is_serialized(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))
        finish = []

        def worker(cycles):
            yield cpu.execute(cycles)
            finish.append(sim.now)

        sim.process(worker(100))
        sim.process(worker(100))
        sim.run()
        assert finish == [pytest.approx(100e-6), pytest.approx(200e-6)]

    def test_cycles_booked_by_tag(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)

        def body():
            yield cpu.execute(100, tag="driver")
            yield cpu.execute(50, tag="driver")
            yield cpu.execute(30, tag="app")

        sim.process(body())
        sim.run()
        assert cpu.cycles_for("driver") == 150
        assert cpu.cycles_for("app") == 30
        assert cpu.total_cycles == 180

    def test_utilization(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))

        def body():
            yield cpu.execute(500)

        sim.process(body())
        sim.run(until=1e-3)
        assert cpu.utilization() == pytest.approx(0.5)

    def test_charge_accounting_only(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))
        seconds = cpu.charge(200, tag="analysis")
        assert seconds == pytest.approx(200e-6)
        assert cpu.total_cycles == 200
        assert sim.now == 0.0  # no simulated time passed

    def test_negative_cycles_rejected(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        with pytest.raises(ValueError):
            cpu.charge(-5)

    def test_negative_execute_raises_and_leaves_the_cpu_usable(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e6))
        done = []

        def bad():
            yield cpu.execute(-5)

        def good():
            yield cpu.execute(100)
            done.append(sim.now)

        failed = sim.process(bad())
        sim.process(good())
        sim.run()
        assert isinstance(failed.exception, ValueError)
        assert done == [pytest.approx(100e-6)]
        assert cpu.total_cycles == 100

    def test_contending_calls_served_fifo_with_same_books(self, sim):
        spec = CpuSpec("t", clock_hz=1e6)
        cpu = HostCpu(sim, spec)
        finish = []

        def worker(name, cycles, tag):
            yield cpu.execute(cycles, tag=tag)
            finish.append((name, sim.now))

        jobs = (("a", 300, "x"), ("b", 100, "y"), ("c", 200, "x"))
        for job in jobs:
            sim.process(worker(*job))
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
        # The CPU finishes work in its own timed entry, then resumes the
        # caller from a zero-delay entry of its own: anything already
        # queued for that instant (here a call queued after the work
        # started) runs before the caller continues.
        spec = CpuSpec("t", clock_hz=1e6)
        cpu = HostCpu(sim, spec)
        log = []

        def caller():
            yield cpu.execute(100)
            log.append(("caller", sim.now))

        def neighbour():
            sim.schedule_call(spec.seconds_for(100), log.append, ("other", None))
            yield sim.timeout(0.0)

        sim.process(caller())
        sim.process(neighbour())
        sim.run()
        assert [who for who, _ in log] == ["other", "caller"]

    def test_queue_length_visible(self, sim):
        cpu = HostCpu(sim, CpuSpec("t", clock_hz=1e3))  # slow

        def worker():
            yield cpu.execute(1000)

        for _ in range(3):
            sim.process(worker())
        sim.run(until=0.1)
        assert cpu.queue_length == 2

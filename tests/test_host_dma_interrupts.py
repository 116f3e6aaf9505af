"""DMA engine and interrupt controller."""

import pytest

from repro.host import (
    DmaEngine,
    DmaSpec,
    HostCpu,
    InterruptController,
    InterruptSpec,
    R3000_25MHZ,
    SystemBus,
    TURBOCHANNEL,
)


class TestDma:
    def test_transfer_time_is_setup_plus_bus_plus_completion(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        spec = DmaSpec(setup_time=1e-6, completion_time=0.5e-6)
        dma = DmaEngine(sim, bus, spec)
        done = []

        def master():
            yield dma.transfer(512)
            done.append(sim.now)

        sim.process(master())
        sim.run()
        expected = 1e-6 + TURBOCHANNEL.transfer_time(512) + 0.5e-6
        assert done[0] == pytest.approx(expected)

    def test_transfers_serialize_per_engine(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        dma = DmaEngine(sim, bus, DmaSpec(setup_time=1e-6, completion_time=0.0))
        done = []

        def master():
            yield dma.transfer(512)
            done.append(sim.now)

        sim.process(master())
        sim.process(master())
        sim.run()
        single = 1e-6 + TURBOCHANNEL.transfer_time(512)
        assert done[1] == pytest.approx(2 * single)

    def test_statistics(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        dma = DmaEngine(sim, bus)

        def master():
            yield dma.transfer(100)
            yield dma.transfer(200)

        sim.process(master())
        sim.run()
        assert dma.transfers.count == 2
        assert dma.bytes_moved.count == 300
        assert dma.latency.n == 2

    def test_two_engines_contend_on_one_bus(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        a = DmaEngine(sim, bus, DmaSpec(0.0, 0.0), name="a")
        b = DmaEngine(sim, bus, DmaSpec(0.0, 0.0), name="b")
        done = {}

        def master(engine, name):
            yield engine.transfer(4096)
            done[name] = sim.now

        sim.process(master(a, "a"))
        sim.process(master(b, "b"))
        sim.run()
        solo = TURBOCHANNEL.transfer_time(4096)
        # Interleaved at burst granularity: both finish ~2x solo time.
        assert done["a"] > solo
        assert done["b"] == pytest.approx(2 * solo, rel=0.05)

    def test_two_engines_rearbitrate_between_bursts_in_request_order(self, sim):
        # a asks first for three bursts, b second for two: the bus
        # alternates a, b, a, b, a -- a transaction with bursts left
        # rejoins the queue behind the waiting master.
        bus = SystemBus(sim, TURBOCHANNEL)
        a = DmaEngine(sim, bus, DmaSpec(0.0, 0.0), name="a")
        b = DmaEngine(sim, bus, DmaSpec(0.0, 0.0), name="b")
        burst_bytes = TURBOCHANNEL.max_burst_words * TURBOCHANNEL.width_bytes
        done = {}

        def master(engine, nbytes):
            yield engine.transfer(nbytes)
            done[engine.name] = sim.now

        sim.process(master(a, 3 * burst_bytes))
        sim.process(master(b, 2 * burst_bytes))
        sim.run()
        burst = TURBOCHANNEL.transfer_time(burst_bytes)
        assert done["b"] == pytest.approx(4 * burst)
        assert done["a"] == pytest.approx(5 * burst)
        assert list(bus.bytes_by_master) == ["b", "a"]
        assert bus.utilization() == pytest.approx(1.0)

    def test_backlog_counts_queued_transfers(self, sim):
        dma = DmaEngine(sim, SystemBus(sim, TURBOCHANNEL))
        for _ in range(3):
            dma.transfer(512)
        assert dma.backlog == 2
        sim.run()
        assert dma.backlog == 0
        assert dma.transfers.count == 3

    def test_negative_size_raises(self, sim):
        dma = DmaEngine(sim, SystemBus(sim, TURBOCHANNEL))

        def master():
            yield dma.transfer(-1)

        failed = sim.process(master())
        sim.run()
        assert isinstance(failed.exception, ValueError)

    def test_validation(self):
        with pytest.raises(ValueError):
            DmaSpec(setup_time=-1.0)


class TestInterrupts:
    def test_cost_charged_to_cpu(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(
            sim, cpu, InterruptSpec(entry_cycles=200, exit_cycles=100)
        )
        ran = []
        intc.raise_interrupt(50, handler=lambda: ran.append(sim.now))
        sim.run()
        assert ran
        assert cpu.cycles_for("interrupt") == 350

    def test_completion_event(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(sim, cpu)
        done = []

        def waiter():
            yield intc.raise_interrupt(100)
            done.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert done and done[0] > 0

    def test_handler_runs_after_entry_cost(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        spec = InterruptSpec(entry_cycles=250, exit_cycles=0)
        intc = InterruptController(sim, cpu, spec)
        ran = []
        intc.raise_interrupt(0, handler=lambda: ran.append(sim.now))
        sim.run()
        assert ran[0] >= 250 / 25e6

    def test_coalescing_merges_raises(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(
            sim, cpu, InterruptSpec(coalesce_window=1e-3)
        )
        for _ in range(5):
            intc.raise_interrupt(10)
        sim.run()
        assert intc.raised.count == 5
        assert intc.delivered.count == 1
        assert intc.coalescing_ratio == pytest.approx(5.0)
        # One entry/exit pair, five handler bodies.
        assert cpu.cycles_for("interrupt") == 200 + 150 + 50

    def test_no_coalescing_by_default(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(sim, cpu)

        def raiser():
            for _ in range(3):
                yield intc.raise_interrupt(10)

        sim.process(raiser())
        sim.run()
        assert intc.delivered.count == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            InterruptSpec(entry_cycles=-1)
        with pytest.raises(ValueError):
            InterruptSpec(coalesce_window=-1.0)

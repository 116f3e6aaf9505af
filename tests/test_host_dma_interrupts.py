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
        dma.transfer_then(512, lambda: done.append(sim.now))
        sim.run()
        expected = 1e-6 + TURBOCHANNEL.transfer_time(512) + 0.5e-6
        assert done[0] == pytest.approx(expected)

    def test_transfers_serialize_per_engine(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        dma = DmaEngine(sim, bus, DmaSpec(setup_time=1e-6, completion_time=0.0))
        done = []
        for _ in range(2):
            dma.transfer_then(512, lambda: done.append(sim.now))
        sim.run()
        single = 1e-6 + TURBOCHANNEL.transfer_time(512)
        assert done[1] == pytest.approx(2 * single)

    def test_statistics(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        dma = DmaEngine(sim, bus)
        dma.transfer_then(100, dma.transfer_then, 200, lambda: None)
        sim.run()
        assert dma.transfers.count == 2
        assert dma.bytes_moved.count == 300

    def test_two_engines_contend_on_one_bus(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        a = DmaEngine(sim, bus, DmaSpec(0.0, 0.0), name="a")
        b = DmaEngine(sim, bus, DmaSpec(0.0, 0.0), name="b")
        done = {}

        def finished(name):
            done[name] = sim.now

        a.transfer_then(4096, finished, "a")
        b.transfer_then(4096, finished, "b")
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

        def finished(engine):
            done[engine.name] = sim.now

        a.transfer_then(3 * burst_bytes, finished, a)
        b.transfer_then(2 * burst_bytes, finished, b)
        sim.run()
        burst = TURBOCHANNEL.transfer_time(burst_bytes)
        assert done["b"] == pytest.approx(4 * burst)
        assert done["a"] == pytest.approx(5 * burst)
        assert list(bus.bytes_by_master) == ["b", "a"]
        assert bus.utilization() == pytest.approx(1.0)

    def test_backlog_counts_queued_transfers(self, sim):
        dma = DmaEngine(sim, SystemBus(sim, TURBOCHANNEL))
        for _ in range(3):
            dma.transfer_then(512, lambda: None)
        assert dma.backlog == 2
        sim.run()
        assert dma.backlog == 0
        assert dma.transfers.count == 3

    def test_negative_size_raises(self, sim):
        dma = DmaEngine(sim, SystemBus(sim, TURBOCHANNEL))
        with pytest.raises(ValueError):
            dma.transfer_then(-1, lambda: None)

    def test_validation(self):
        with pytest.raises(ValueError):
            DmaSpec(setup_time=-1.0)

    def test_continuation_runs_in_the_write_back_entry_before_the_next_setup(
        self, sim
    ):
        # The engine logs each setup ("dma.start") and writeback
        # ("dma.done") with the entry it ran in.  The first transfer's
        # continuation runs in its writeback entry, before the queued
        # second transfer is set up, and so does the second's.
        log = []

        class EntryLog:
            def emit(self, name, **fields):
                log.append((name, sim.events_processed))

        sim.trace = EntryLog()
        dma = DmaEngine(sim, SystemBus(sim, TURBOCHANNEL))
        dma.transfer_then(
            512, lambda: log.append(("then", sim.events_processed))
        )
        dma.transfer_then(
            256, lambda: log.append(("then", sim.events_processed))
        )
        sim.run()
        names = [name for name, _ in log]
        assert names == [
            "dma.start", "dma.done", "then", "dma.start", "dma.done", "then",
        ]
        entries = [entry for _, entry in log]
        assert entries[2] == entries[1] == entries[3]
        assert entries[5] == entries[4]


class TestInterrupts:
    def test_cost_charged_to_cpu(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(
            sim, cpu, InterruptSpec(entry_cycles=200, exit_cycles=100)
        )
        ran = []
        intc.raise_interrupt_then(50, lambda: ran.append(sim.now), lambda: None)
        sim.run()
        assert ran
        assert cpu.cycles_for("interrupt") == 350

    def test_completion_event(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(sim, cpu)
        done = []
        intc.raise_interrupt_then(100, None, lambda: done.append(sim.now))
        sim.run()
        assert done and done[0] > 0

    def test_handler_runs_after_entry_cost(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        spec = InterruptSpec(entry_cycles=250, exit_cycles=0)
        intc = InterruptController(sim, cpu, spec)
        ran = []
        intc.raise_interrupt_then(0, lambda: ran.append(sim.now), lambda: None)
        sim.run()
        assert ran[0] >= 250 / 25e6

    def test_coalescing_merges_raises(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(
            sim, cpu, InterruptSpec(coalesce_window=1e-3)
        )
        for _ in range(5):
            intc.raise_interrupt_then(10, None, lambda: None)
        sim.run()
        assert intc.raised.count == 5
        assert intc.delivered.count == 1
        assert intc.coalescing_ratio == pytest.approx(5.0)
        # One entry/exit pair, five handler bodies.
        assert cpu.cycles_for("interrupt") == 200 + 150 + 50

    def test_no_coalescing_by_default(self, sim):
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(sim, cpu)

        def raise_next(left):
            if left:
                intc.raise_interrupt_then(10, None, raise_next, left - 1)

        raise_next(3)
        sim.run()
        assert intc.delivered.count == 3

    def test_continuations_run_after_the_handlers_in_the_cpu_entry(self, sim):
        # Two raises from one entry merge into one delivery.  Both
        # handlers run, then both continuations, all in the entry the
        # CPU completes the interrupt work in.
        cpu = HostCpu(sim, R3000_25MHZ)
        intc = InterruptController(sim, cpu)
        log = []

        def note(what):
            return lambda: log.append((what, sim.events_processed))

        def raise_two():
            intc.raise_interrupt_then(10, note("handler 1"), note("then 1"))
            intc.raise_interrupt_then(10, note("handler 2"), note("then 2"))

        sim.schedule_call(1e-6, raise_two)
        sim.run()
        assert intc.delivered.count == 1
        assert [what for what, _ in log] == [
            "handler 1", "handler 2", "then 1", "then 2",
        ]
        entries = [entry for _, entry in log]
        # Raise, URGENT delivery, CPU work, CPU completion.
        assert entries == [4] * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            InterruptSpec(entry_cycles=-1)
        with pytest.raises(ValueError):
            InterruptSpec(coalesce_window=-1.0)

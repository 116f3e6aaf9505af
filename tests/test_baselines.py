"""Baseline architectures: host-SAR, hardwired, shared-engine."""

import pytest

from repro.atm import PhysicalLink, STS3C_155, STS12C_622
from repro.baselines import (
    HARDWIRED_RX_COSTS,
    HARDWIRED_TX_COSTS,
    HostSarConfig,
    HostSarInterface,
    SharedEngineClock,
    hardwired_config,
    share_engine,
)
from repro.nic import (
    CellPosition,
    HostNetworkInterface,
    I960_25MHZ,
    RxCostModel,
    TxCostModel,
    aurora_oc12,
    connect,
)
from repro.nic.costs import Charge
from repro.obs import CycleProfiler
from repro.obs.trace import TraceRecorder
from repro.results.experiments import (
    _measure_duplex_aggregate,
    _measure_rx_capacity,
    _measure_tx_capacity,
    lab_host,
)
from repro.workloads.generators import make_payload


def work(cycles, tag="work", engine="tx"):
    """A hand-made charge of *cycles* under one op named *tag*."""
    return Charge({tag: cycles}, tag, engine)


def build_sar_pair(sim, config=None):
    config = config if config is not None else HostSarConfig()
    tx = HostSarInterface(sim, config, name="tx")
    rx = HostSarInterface(sim, config, name="rx")
    link = PhysicalLink(sim, config.link, sink=rx.rx_input)
    tx.attach_tx_link(link)
    vc = tx.open_vc()
    rx.open_vc(address=vc.address)
    tx.start()
    return tx, rx, vc.address


class TestHostSarFunctional:
    def test_transfer_roundtrip(self, sim):
        tx, rx, vc = build_sar_pair(sim)
        received = []
        rx.on_pdu = received.append
        payload = make_payload(1500)

        def sender():
            yield tx.send(vc, payload)

        sim.process(sender())
        sim.run(until=0.1)
        assert len(received) == 1
        assert received[0].sdu == payload

    def test_per_cell_interrupts(self, sim):
        tx, rx, vc = build_sar_pair(sim)

        def sender():
            yield tx.send(vc, make_payload(1500))  # 32 cells

        sim.process(sender())
        sim.run(until=0.1)
        assert rx.interrupts.raised.count == 32

    def test_host_cycles_scale_with_cells(self, sim):
        tx, rx, vc = build_sar_pair(sim)

        def sender():
            yield tx.send(vc, make_payload(9180))

        sim.process(sender())
        sim.run(until=0.2)
        # Receiving 192 cells in software costs well over 100 cycles/cell.
        assert rx.cpu.total_cycles > 192 * 100

    def test_unknown_vc_ignored(self, sim):
        config = HostSarConfig()
        rx = HostSarInterface(sim, config, name="rx")
        from repro.aal.aal5 import Aal5Segmenter
        from repro.atm import VcAddress

        for cell in Aal5Segmenter(VcAddress(0, 500)).segment(b"orphan"):
            rx.receive_cell(cell)
        sim.run(until=0.01)
        assert rx.pdus_received.count == 0

    def test_send_requires_open_vc(self, sim):
        from repro.atm import VcAddress

        tx = HostSarInterface(sim, HostSarConfig(), name="tx")
        with pytest.raises(ValueError):
            tx.send(VcAddress(0, 999), b"x")

    def test_host_cycles_per_pdu_readout(self, sim):
        tx, rx, vc = build_sar_pair(sim)

        def sender():
            yield tx.send(vc, make_payload(500))

        sim.process(sender())
        sim.run(until=0.1)
        assert tx.host_cycles_per_pdu() > 0


class TestHardwired:
    def test_budgets_are_tiny(self):
        assert HARDWIRED_TX_COSTS.cell_cycles(CellPosition.MIDDLE) <= 4
        assert HARDWIRED_RX_COSTS.cell_cycles(CellPosition.MIDDLE) <= 6

    def test_config_overrides_engines_and_costs(self):
        config = hardwired_config(STS12C_622)
        assert config.tx_costs is HARDWIRED_TX_COSTS
        assert config.link is STS12C_622
        assert config.tx_engine.clock_hz == 40e6

    def test_functionally_identical_transfer(self, sim):
        a = HostNetworkInterface(sim, hardwired_config(STS3C_155), name="a")
        b = HostNetworkInterface(sim, hardwired_config(STS3C_155), name="b")
        connect(sim, a, b)
        vc = a.open_vc()
        b.open_vc(address=vc.address)
        received = []
        b.on_pdu = received.append
        payload = make_payload(2000)
        a.send(vc.address, payload)
        sim.run(until=0.05)
        assert received[0].sdu == payload

    def test_hardwired_per_cell_clears_oc12_slot(self):
        config = hardwired_config(STS12C_622)
        per_cell = config.rx_engine.seconds_for(
            config.rx_costs.cell_cycles(CellPosition.MIDDLE)
        )
        assert per_cell < STS12C_622.cell_time


class TestSharedEngine:
    def test_work_serialises_across_callers(self, sim):
        clock = SharedEngineClock(sim, I960_25MHZ)
        finish = []
        for name in ("a", "b"):
            clock.work(work(2500), lambda n=name: finish.append((n, sim.now)))
        sim.run()
        assert finish[0][1] == pytest.approx(100e-6)  # 2500 cycles
        assert finish[1][1] == pytest.approx(200e-6)
        assert clock.contention_wait > 0

    def test_share_engine_rebinds_both_pipelines(self, sim):
        nic = HostNetworkInterface(sim, aurora_oc12(), name="n")
        shared = share_engine(nic)
        assert nic.tx_engine.clock is shared
        assert nic.rx_engine.clock is shared
        assert nic.tx_clock is shared

    def test_shared_nic_still_transfers(self, sim):
        a = HostNetworkInterface(sim, aurora_oc12(), name="a")
        b = HostNetworkInterface(sim, aurora_oc12(), name="b")
        share_engine(a)
        share_engine(b)
        connect(sim, a, b)
        vc = a.open_vc()
        b.open_vc(address=vc.address)
        received = []
        b.on_pdu = received.append
        a.send(vc.address, make_payload(3000))
        sim.run(until=0.05)
        assert len(received) == 1

    def test_t5_shared_engine_pays_under_duplex_load(self):
        # T5's verdict at a 5 ms window: both directions through one
        # engine lose > 30% of the dual-engine aggregate, while either
        # direction alone runs exactly as fast on a shared engine.
        config, size, window = lab_host(aurora_oc12()), 9180, 5e-3
        dual = _measure_duplex_aggregate(config, size, window)
        shared = _measure_duplex_aggregate(config, size, window, shared=True)
        assert dual / shared > 1.3
        for measure in (_measure_tx_capacity, _measure_rx_capacity):
            alone = measure(config, size, window)
            assert alone > 0
            assert measure(config, size, window, shared=True) == alone

    def test_utilization_accounted_once(self, sim):
        clock = SharedEngineClock(sim, I960_25MHZ)
        clock.work(work(25_000), lambda: None)  # 1 ms
        clock.work(work(25_000), lambda: None)
        sim.run()
        assert clock.utilization(sim.now) == pytest.approx(1.0)

    def test_contention_wait_is_the_mean_queueing_time(self, sim):
        clock = SharedEngineClock(sim, I960_25MHZ)
        clock.work(work(2500), lambda: None)
        sim.run()
        assert clock.contention_wait == 0.0  # one caller never waits
        clock.work(work(2500), lambda: None)  # 100 us each
        clock.work(work(2500), lambda: None)  # waits 100 us
        sim.run()
        assert clock.contention_wait == pytest.approx(100e-6 / 3)

    def test_stall_delays_the_next_item(self, sim):
        clock = SharedEngineClock(sim, I960_25MHZ)
        finish = []
        clock.request_stall(1e-3)
        clock.work(work(2500), lambda: finish.append(sim.now))
        clock.work(work(2500), lambda: finish.append(sim.now))
        sim.run()
        assert finish == [
            pytest.approx(100e-6 + 1e-3),
            pytest.approx(200e-6 + 1e-3),
        ]
        assert clock.stalls_taken == 1
        assert clock.stalled_time == pytest.approx(1e-3)

    def test_traced_shared_clock_emits_engine_work(self, sim):
        recorder = TraceRecorder(sim)
        clock = SharedEngineClock(sim, I960_25MHZ, name="shared")
        clock.trace = recorder
        clock.work(work(2500, "rx-cell", "rx"), lambda: None)
        clock.work(work(25, "tx-cell"), lambda: None)
        sim.run()
        spans = [e for e in recorder.events if e.name == "engine.work"]
        assert [(e.args["tag"], e.args["cycles"]) for e in spans] == [
            ("rx-cell", 2500),
            ("tx-cell", 25),
        ]
        # Each span starts when its item gets the stream.
        assert [e.ts for e in spans] == [0.0, pytest.approx(100e-6)]

    def test_ledger_holds_only_work_the_stream_began(self, sim):
        clock = SharedEngineClock(sim, I960_25MHZ)
        rx, tx = work(2500, "rx-cell", "rx"), work(2500, "tx-cell")
        clock.work(rx, lambda: None)  # 100 us
        clock.work(tx, lambda: None)  # waits for the stream
        profiler = CycleProfiler([clock])
        sim.run(until=50e-6)
        assert clock.booked == {rx: 1}
        assert (profiler.total_cycles("rx"), profiler.total_cycles("tx")) == (
            2500,
            0,
        )
        sim.run(until=150e-6)  # the TX charge started at 100 us
        assert clock.booked == {rx: 1, tx: 1}
        assert profiler.total_cycles("tx") == 2500
        assert clock.total_cycles == 5000

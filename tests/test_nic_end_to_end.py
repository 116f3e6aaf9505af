"""Integration: full sender/receiver pairs over simulated links."""

import pytest

from repro.atm import UniformLoss
from repro.nic import HostNetworkInterface, aurora_oc3, aurora_oc12, connect
from repro.workloads import GreedySource
from repro.workloads.generators import make_payload
from repro.workloads.scenarios import build_point_to_point


class TestLoopback:
    def test_every_pdu_arrives_intact(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        payloads = [make_payload(s) for s in (64, 100, 1500, 9180, 40)]
        for p in payloads:
            scenario.sender.send(scenario.vc, p)
        sim.run(until=0.05)
        assert [c.sdu for c in scenario.received] == payloads

    def test_bidirectional_traffic(self, sim):
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        connect(sim, a, b)
        vc_ab = a.open_vc()
        b.open_vc(address=vc_ab.address)
        vc_ba = b.open_vc()
        a.open_vc(address=vc_ba.address)
        got_a, got_b = [], []
        a.on_pdu = got_a.append
        b.on_pdu = got_b.append
        a.send(vc_ab.address, b"to-b" * 100)
        b.send(vc_ba.address, b"to-a" * 100)
        sim.run(until=0.05)
        assert got_b[0].sdu == b"to-b" * 100
        assert got_a[0].sdu == b"to-a" * 100

    def test_multiple_vcs_kept_separate(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3(), n_vcs=3)
        for i, vc in enumerate(scenario.vcs):
            scenario.sender.send(vc, bytes([i]) * 100)
        sim.run(until=0.05)
        by_vc = {c.vc: c.sdu for c in scenario.received}
        assert by_vc == {
            vc: bytes([i]) * 100 for i, vc in enumerate(scenario.vcs)
        }

    def test_end_to_end_latency_positive_and_ordered(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        scenario.sender.send(scenario.vc, make_payload(1500))
        sim.run(until=0.05)
        completion = scenario.received[0]
        assert completion.end_to_end_latency > 0
        assert completion.received_at <= completion.delivered_at

    def test_propagation_delay_adds_to_latency(self, sim):
        fast = build_point_to_point(sim, aurora_oc3())
        fast.sender.send(fast.vc, make_payload(100))
        sim.run(until=0.05)
        base = fast.received[0].end_to_end_latency

        sim2_scenario_sim = type(sim)()
        slow = build_point_to_point(
            sim2_scenario_sim, aurora_oc3(), propagation_delay=0.002
        )
        slow.sender.send(slow.vc, make_payload(100))
        sim2_scenario_sim.run(until=0.05)
        assert slow.received[0].end_to_end_latency == pytest.approx(
            base + 0.002, rel=0.01
        )

    def test_interrupt_per_pdu_not_per_cell(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        GreedySource(
            sim, scenario.sender, scenario.vc, 9180, total_pdus=5
        ).start()
        sim.run(until=0.1)
        stats = scenario.receiver.stats()
        assert stats.pdus_received == 5
        assert stats.interrupts_delivered == 5
        assert stats.cells_received == 5 * 192

    def test_stats_snapshot_consistency(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        GreedySource(
            sim, scenario.sender, scenario.vc, 1500, total_pdus=10
        ).start()
        sim.run(until=0.05)
        tx_stats = scenario.sender.stats()
        rx_stats = scenario.receiver.stats()
        assert tx_stats.pdus_sent == 10
        assert rx_stats.pdus_received == 10
        assert tx_stats.cells_sent == rx_stats.cells_received
        assert rx_stats.pdus_discarded == 0
        assert 0 <= rx_stats.rx_engine_utilization <= 1
        assert 0 <= rx_stats.host_cpu_utilization <= 1


class TestLossRecoveryBehaviour:
    def test_lossy_link_discards_but_never_corrupts(self, sim, rng):
        scenario = build_point_to_point(
            sim, aurora_oc3(), loss_ab=UniformLoss(0.02, rng)
        )
        payload = make_payload(1500)
        GreedySource(
            sim, scenario.sender, scenario.vc, 1500, total_pdus=60
        ).start()
        sim.run(until=0.2)
        stats = scenario.receiver.stats()
        assert stats.pdus_discarded > 0  # 2% cell loss, 32 cells/PDU
        assert stats.pdus_received + stats.pdus_discarded <= 60
        assert all(c.sdu == payload for c in scenario.received)

    def test_zero_loss_delivers_everything(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        GreedySource(
            sim, scenario.sender, scenario.vc, 1500, total_pdus=40
        ).start()
        sim.run(until=0.2)
        assert len(scenario.received) == 40


class TestOc12Behaviour:
    def test_rx_overrun_shows_up_as_fifo_loss(self, sim):
        # At STS-12c the 25 MHz receive engine cannot keep up with
        # back-to-back cells at line rate: fed a full wire (as a switch
        # merging several senders would deliver), the FIFO must overflow.
        # A single sender cannot create this -- its own TX path caps out
        # below the receiver's capacity, which is itself a finding.
        from repro.atm import STS12C_622, VcAddress
        from repro.workloads.scenarios import InterleavedCellSource

        nic = HostNetworkInterface(sim, aurora_oc12(), name="rx")
        source = InterleavedCellSource(
            sim, nic.rx_engine, STS12C_622, n_vcs=1, sdu_size=9180
        )
        nic.open_vc(address=source.vcs[0])
        nic.start()
        source.start()
        sim.run(until=0.02)
        assert nic.stats().rx_fifo_overflows > 0

    def test_oc3_no_overrun(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        GreedySource(sim, scenario.sender, scenario.vc, 9180).start()
        sim.run(until=0.02)
        assert scenario.receiver.stats().rx_fifo_overflows == 0

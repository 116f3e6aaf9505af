"""Scenario builders and experiment-harness helpers."""

import pytest

from repro.atm import STS3C_155, UniformLoss, VcAddress
from repro.nic import HostNetworkInterface, aurora_oc3
from repro.results.experiments import _window_for, lab_host
from repro.sim import Simulator
from repro.workloads import GreedySource, InterleavedCellSource
from repro.workloads.scenarios import build_point_to_point


class TestPointToPoint:
    def test_builder_opens_matching_vcs(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3(), n_vcs=2)
        for vc in scenario.vcs:
            assert scenario.sender.vc_table.lookup(vc) is not None
            assert scenario.receiver.vc_table.lookup(vc) is not None

    def test_vc_property_is_first(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3(), n_vcs=3)
        assert scenario.vc == scenario.vcs[0]

    def test_received_bytes_and_goodput(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        GreedySource(sim, scenario.sender, scenario.vc, 1000, total_pdus=4).start()
        sim.run(until=0.01)
        assert scenario.received_bytes() == 4000
        assert scenario.goodput_mbps(0.01) == pytest.approx(4000 * 8 / 0.01 / 1e6)

    def test_loss_model_attaches_to_forward_link(self, sim, rng):
        loss = UniformLoss(1.0, rng)
        scenario = build_point_to_point(sim, aurora_oc3(), loss_ab=loss)
        scenario.sender.send(scenario.vc, b"doomed" * 10)
        sim.run(until=0.01)
        assert scenario.received == []
        assert loss.dropped > 0

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            build_point_to_point(sim, aurora_oc3(), n_vcs=0)


class TestInterleavedCellSource:
    def test_round_robin_interleaving(self, sim):
        seen = []
        source = InterleavedCellSource(
            sim, lambda c: seen.append(c.vci), STS3C_155, n_vcs=3, sdu_size=1000
        )
        source.start()
        sim.run(until=30 * STS3C_155.cell_time)
        # Strict rotation across the three VCIs.
        assert seen[:6] == [100, 101, 102, 100, 101, 102]

    def test_emits_at_link_rate(self, sim):
        times = []
        source = InterleavedCellSource(
            sim, lambda c: times.append(sim.now), STS3C_155, n_vcs=1, sdu_size=500
        )
        source.start()
        sim.run(until=20 * STS3C_155.cell_time)
        gaps = {round(b - a, 12) for a, b in zip(times, times[1:])}
        assert gaps == {round(STS3C_155.cell_time, 12)}

    def test_streams_reassemble_at_a_nic(self, sim):
        config = lab_host(aurora_oc3())
        nic = HostNetworkInterface(sim, config, name="rx")
        received = []
        nic.on_pdu = received.append
        source = InterleavedCellSource(
            sim, nic.rx_engine, STS3C_155, n_vcs=4, sdu_size=480
        )
        for address in source.vcs:
            nic.open_vc(address=address)
        nic.start()
        source.start()
        sim.run(until=0.005)
        assert len(received) >= 4
        assert {c.vc for c in received} == set(source.vcs)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            InterleavedCellSource(sim, lambda c: None, STS3C_155, 0, 100)
        with pytest.raises(ValueError):
            InterleavedCellSource(sim, lambda c: None, STS3C_155, 1, 0)


class TestHarnessHelpers:
    def test_window_scales_with_pdu_size(self):
        small = _window_for(64, 0.01, STS3C_155)
        huge = _window_for(65535, 0.01, STS3C_155)
        assert small == 0.01  # base window suffices
        assert huge > 0.01  # stretched to cover ~40 PDUs

    def test_lab_host_preserves_identity_of_adaptor(self):
        base = aurora_oc3()
        stripped = lab_host(base)
        assert stripped.rx_costs == base.rx_costs
        assert stripped.link == base.link
        assert stripped.os_costs.send_path_cycles(1000) == 0


class TestNicMisc:
    def test_send_autostarts_pipelines(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        # connect() starts them; a fresh NIC must self-start on send.
        fresh = HostNetworkInterface(sim, aurora_oc3(), name="fresh")
        from repro.atm import PhysicalLink

        fresh.attach_tx_link(PhysicalLink(sim, STS3C_155, sink=lambda c: None))
        vc = fresh.open_vc()
        fresh.send(vc.address, b"auto")
        sim.run(until=0.01)
        assert fresh.tx_engine.pdus_sent.count == 1

    def test_close_vc_aborts_partial_reassembly(self, sim):
        from repro.aal.aal5 import Aal5Segmenter

        nic = HostNetworkInterface(sim, aurora_oc3(), name="rx")
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        for cell in Aal5Segmenter(vc.address).segment(b"x" * 500)[:-1]:
            nic.rx_engine.receive_cell(cell)
        sim.run(until=0.005)
        assert nic.rx_engine.reassembler.has_context(vc.address)
        nic.close_vc(vc.address)
        assert not nic.rx_engine.reassembler.has_context(vc.address)
        assert nic.buffer_memory.used_cells == 0

    def test_cam_entry_removed_on_close(self, sim):
        nic = HostNetworkInterface(sim, aurora_oc3(), name="n")
        vc = nic.open_vc()
        assert nic.cam.lookup(vc.address) is not None
        nic.close_vc(vc.address)
        assert nic.cam.lookup(vc.address) is None

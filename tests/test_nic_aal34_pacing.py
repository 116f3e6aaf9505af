"""Extension features: the AAL3/4 data path and per-VC transmit pacing."""

import pytest

from repro.atm import Gcra, PhysicalLink, STS3C_155, VcAddress
from repro.nic import HostNetworkInterface, aurora_oc3, connect
from repro.nic.sarglue import Aal5Glue, Aal34Glue, glue_for
from repro.workloads import GreedySource
from repro.workloads.generators import make_payload


class TestSarGlue:
    def test_factory(self):
        assert isinstance(glue_for("aal5"), Aal5Glue)
        assert isinstance(glue_for("aal3/4"), Aal34Glue)
        for unknown in ("aal34", "aal2"):
            with pytest.raises(ValueError):
                glue_for(unknown)

    def test_cell_counts_reflect_overhead(self):
        vc = VcAddress(0, 32)
        aal5 = Aal5Glue().segmenter_for(vc)
        aal34 = Aal34Glue().segmenter_for(vc)
        # 9180-byte SDU: 192 cells at 48 B/cell vs 209 at 44 B/cell.
        assert len(aal5(bytes(9180), 0)) == 192
        assert len(aal34(bytes(9180), 0)) == 209
        # The ratio approaches 48/44 for large SDUs.
        ratio = len(aal34(bytes(65000), 0)) / len(aal5(bytes(65000), 0))
        assert ratio == pytest.approx(48 / 44, rel=0.01)

    def test_aal34_engine_tax_nonzero(self):
        assert Aal34Glue().tx_extra_cycles > 0
        assert Aal34Glue().rx_extra_cycles > 0
        assert Aal5Glue().tx_extra_cycles == 0


class TestAal34DataPath:
    def build(self, sim):
        config = aurora_oc3().with_aal34()
        a = HostNetworkInterface(sim, config, name="a")
        b = HostNetworkInterface(sim, config, name="b")
        connect(sim, a, b)
        vc = a.open_vc()
        b.open_vc(address=vc.address)
        received = []
        b.on_pdu = received.append
        return a, b, vc.address, received

    def test_transfer_roundtrip(self, sim):
        a, b, vc, received = self.build(sim)
        payload = make_payload(5000)
        a.send(vc, payload)
        sim.run(until=0.02)
        assert [c.sdu for c in received] == [payload]

    def test_more_cells_than_aal5(self, sim):
        a, b, vc, received = self.build(sim)
        a.send(vc, make_payload(9180))
        sim.run(until=0.02)
        assert received[0].cells == 209

    def test_many_pdus(self, sim):
        a, b, vc, received = self.build(sim)
        GreedySource(sim, a, vc, 1500, total_pdus=10).start()
        sim.run(until=0.05)
        assert len(received) == 10
        assert b.stats().pdus_discarded == 0

    def test_reassembly_timeout_reclaims_aal34_context(self, sim):
        from repro.aal.aal34 import Aal34Segmenter

        config = aurora_oc3().with_aal34()
        nic = HostNetworkInterface(sim, config, name="rx")
        from repro.atm import VcAddress

        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        cells = Aal34Segmenter(vc.address, mid=0).segment(b"x" * 500)
        for cell in cells[:-1]:
            nic.rx_engine.receive_cell(cell)
        sim.run(until=1.0)
        assert not nic.rx_engine.reassembler.has_context(vc.address, 0)
        assert nic.buffer_memory.used_cells == 0

    def test_goodput_lower_than_aal5_at_link_rate(self, sim):
        from repro.results.experiments import lab_host, steady_goodput_mbps
        from repro.workloads.scenarios import build_point_to_point

        results = {}
        for label, config in (
            ("aal5", lab_host(aurora_oc3())),
            ("aal34", lab_host(aurora_oc3().with_aal34())),
        ):
            local_sim = type(sim)()
            scenario = build_point_to_point(local_sim, config)
            GreedySource(local_sim, scenario.sender, scenario.vc, 9180).start()
            local_sim.run(until=0.03)
            results[label] = steady_goodput_mbps(scenario.received)
        # The 4-bytes-per-cell tax: AAL3/4 delivers ~44/48 of AAL5.
        assert results["aal34"] < results["aal5"]
        assert results["aal34"] / results["aal5"] == pytest.approx(
            44 / 48, rel=0.05
        )


class TestPacing:
    def test_paced_vc_conforms_to_gcra(self, sim):
        nic = HostNetworkInterface(sim, aurora_oc3(), name="tx")
        arrivals = []
        link = PhysicalLink(sim, STS3C_155, sink=lambda c: arrivals.append(sim.now))
        nic.attach_tx_link(link)
        vc = nic.open_vc(peak_rate_bps=20e6)
        GreedySource(sim, nic, vc.address, 9180, total_pdus=2).start()
        sim.run(until=0.1)
        gcra = Gcra.for_rate(20e6 / 424, tolerance=STS3C_155.cell_time + 1e-9)
        assert arrivals
        assert all(gcra.conforms(t) for t in arrivals)
        assert nic.tx_engine.pacing_stalls.count > 0

    def test_paced_rate_matches_contract(self, sim):
        nic = HostNetworkInterface(sim, aurora_oc3(), name="tx")
        arrivals = []
        link = PhysicalLink(sim, STS3C_155, sink=lambda c: arrivals.append(sim.now))
        nic.attach_tx_link(link)
        vc = nic.open_vc(peak_rate_bps=30e6)
        GreedySource(sim, nic, vc.address, 9180, total_pdus=3).start()
        sim.run(until=0.2)
        span = arrivals[-1] - arrivals[0]
        observed = (len(arrivals) - 1) * 424 / span
        # Pacing is a ceiling: per-PDU machinery (descriptor, DMA) adds
        # gaps on top, so the long-run rate lands just under the contract.
        assert observed <= 30e6 * 1.001
        assert observed >= 30e6 * 0.95

    def test_unpaced_vc_runs_at_link_rate(self, sim):
        nic = HostNetworkInterface(sim, aurora_oc3(), name="tx")
        arrivals = []
        link = PhysicalLink(sim, STS3C_155, sink=lambda c: arrivals.append(sim.now))
        nic.attach_tx_link(link)
        vc = nic.open_vc()  # no contract
        GreedySource(sim, nic, vc.address, 9180, total_pdus=2).start()
        sim.run(until=0.1)
        assert nic.tx_engine.pacing_stalls.count == 0
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # Within a PDU, cells are back to back at the link slot.
        assert min(gaps) == pytest.approx(STS3C_155.cell_time, rel=0.01)

    def test_pacing_survives_idle_gaps(self, sim):
        nic = HostNetworkInterface(sim, aurora_oc3(), name="tx")
        arrivals = []
        link = PhysicalLink(sim, STS3C_155, sink=lambda c: arrivals.append(sim.now))
        nic.attach_tx_link(link)
        vc = nic.open_vc(peak_rate_bps=50e6)

        def bursty():
            yield nic.send(vc.address, make_payload(1500))
            yield sim.timeout(0.01)
            yield nic.send(vc.address, make_payload(1500))

        sim.process(bursty())
        sim.run(until=0.1)
        gcra = Gcra.for_rate(50e6 / 424, tolerance=STS3C_155.cell_time + 1e-9)
        assert all(gcra.conforms(t) for t in arrivals)

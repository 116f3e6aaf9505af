"""Trace hook sites no experiment reaches at its bench size.

At their bench parameters the 21 experiments emit 41 of the 45 event
names a run can emit and 8 of the 18 drop reasons, and tier-1's shrunk
runs of them reach fewer hook call sites still.  Each test here drives
such a site through real components built inside
:func:`repro.obs.observe`, so the hook under test is the recorder the
component copied from its simulator.
"""

from dataclasses import replace

from repro.aal.aal34 import (
    AAL34_SAR_PAYLOAD,
    SarSegmentType,
    build_cpcs_pdu_34,
    encode_sar_pdu,
)
from repro.aal.aal5 import Aal5Segmenter
from repro.atm.addressing import VcAddress
from repro.atm.cell import PTI_USER_SDU0, AtmCell
from repro.atm.errors import UniformLoss
from repro.atm.link import LinkSpec, PhysicalLink
from repro.atm.mux import OutputPort
from repro.atm.signalling import SignallingAgent
from repro.faults import (
    CamMissPlan,
    CorruptionPlan,
    EngineStallPlan,
    TailLossPlan,
)
from repro.faults.campaign import CampaignSpec, FaultCampaign
from repro.nic import HostNetworkInterface, aurora_oc3, connect
from repro.nic.bufmem import BufferMemorySpec
from repro.nic.rx import FrameDiscardPolicy
from repro.obs import observe
from repro.sim.core import Simulator
from repro.sim.random import RandomStreams
from repro.tm import CallAdmissionController

VC = VcAddress(0, 100)


def observed(build, until=2e-3):
    """Build on a fresh simulator inside ``observe()``, run, return the view."""
    with observe() as observation:
        sim = Simulator()
        build(sim)
        sim.run(until=until)
    (view,) = observation.views
    return view


def names(view):
    return {event.name for event in view.recorder.events}


def aal34_cells(cpcs):
    """Cut CPCS bytes into AAL3/4 cells on VC, as the segmenter does."""
    pieces = [
        cpcs[i : i + AAL34_SAR_PAYLOAD]
        for i in range(0, len(cpcs), AAL34_SAR_PAYLOAD)
    ]
    kinds = (
        [SarSegmentType.BOM]
        + [SarSegmentType.COM] * (len(pieces) - 2)
        + [SarSegmentType.EOM]
    )
    return [
        AtmCell(
            vpi=VC.vpi,
            vci=VC.vci,
            payload=encode_sar_pdu(kind, i % 16, 0, piece),
            pti=PTI_USER_SDU0,
        )
        for i, (kind, piece) in enumerate(zip(kinds, pieces))
    ]


def aal34_receiver(sim, *cell_runs):
    """An AAL3/4 interface fed *cell_runs* straight into its receive path."""
    nic = HostNetworkInterface(sim, aurora_oc3().with_aal34(), name="rx34")
    nic.open_vc(address=VC)
    nic.start()

    def feed():
        for cells in cell_runs:
            for cell in cells:
                nic.rx_input.receive_cell(cell)
                yield sim.timeout(1e-5)

    sim.process(feed())


class TestFaultPlans:
    def test_stall_hec_and_timeout(self):
        config = aurora_oc3().with_frame_discard(FrameDiscardPolicy(), quota=8)
        plans = [
            TailLossPlan(vc_index=0, pdu_indices=(3,)),  # the last PDU's EOF
            CorruptionPlan(payload_p=0.0, hec_p=0.01),
            EngineStallPlan.periodic(0.001, 0.004, period=0.001, duration=1e-4),
            CamMissPlan(p=0.01),
        ]
        spec = CampaignSpec(duration=0.005, n_vcs=1, sdu_size=4096, pdus_per_vc=4)
        with observe() as observation:
            result = FaultCampaign(config, plans, spec, seed=7).run()
        (view,) = observation.views
        assert result.is_conserved
        assert "engine.stall" in names(view)
        assert any(
            e.args.get("forced") for e in view.recorder.by_name("rx.cam.miss")
        )
        assert {"hec", "timeout"} <= set(view.recorder.drop_reasons())
        assert view.ledger.snapshot().is_conserved


class TestReceivePath:
    def test_quota_eviction(self):
        def build(sim):
            config = replace(aurora_oc3(), reassembly_quota=2)
            nic = HostNetworkInterface(sim, config, name="rx")
            for vci in (100, 101, 102):
                nic.open_vc(address=VcAddress(0, vci))
            nic.start()
            for vci in (100, 101, 102):  # three opens against quota 2
                nic.rx_input.receive_cell(
                    AtmCell(vpi=0, vci=vci, payload=bytes(48), pti=PTI_USER_SDU0)
                )

        view = observed(build)
        assert "rx.context.evicted" in names(view)
        assert view.recorder.drop_reasons() == {"quota": 1}

    def test_adaptor_buffer_exhaustion(self):
        def build(sim):
            tiny = replace(
                aurora_oc3(), buffer_memory=BufferMemorySpec(capacity_cells=4)
            )
            a = HostNetworkInterface(sim, aurora_oc3(), name="a")
            b = HostNetworkInterface(sim, tiny, name="b")
            connect(sim, a, b)
            vc = a.open_vc()
            b.open_vc(address=vc.address)
            a.send(vc.address, bytes(1500))

        view = observed(build)
        assert "no_adaptor_buffer" in view.recorder.drop_reasons()
        assert view.ledger.snapshot().is_conserved

    def test_host_buffer_too_small(self):
        def build(sim):
            a = HostNetworkInterface(sim, aurora_oc3(), name="a")
            b = HostNetworkInterface(
                sim, replace(aurora_oc3(), rx_buffer_slot_size=1024), name="b"
            )
            connect(sim, a, b)
            vc = a.open_vc()
            b.open_vc(address=vc.address)
            a.send(vc.address, bytes(1500))

        view = observed(build)
        assert view.recorder.drop_reasons() == {"no_host_buffer": 1}
        assert view.ledger.snapshot().is_conserved

    def test_oversize(self):
        def build(sim):
            nic = HostNetworkInterface(sim, aurora_oc3(), name="rx")
            nic.open_vc(address=VC)
            nic.rx_engine.reassembler.max_cells = 4
            nic.start()
            link = PhysicalLink(sim, aurora_oc3().link, sink=nic.rx_input)
            for cell in Aal5Segmenter(VC).segment(bytes(200)):  # 5 cells
                link.send(cell)

        view = observed(build)
        assert view.recorder.drop_reasons() == {"oversize": 1}
        assert view.ledger.snapshot().is_conserved

    def test_aal34_sequence_and_protocol(self):
        first = aal34_cells(build_cpcs_pdu_34(bytes(400), 1))
        second = aal34_cells(build_cpcs_pdu_34(bytes(400), 2))
        third = aal34_cells(build_cpcs_pdu_34(bytes(100), 3))
        view = observed(
            lambda sim: aal34_receiver(
                sim,
                first[:3] + first[4:],  # a lost COM breaks the sequence
                second[:-1],  # a lost EOM: the next BOM finds it open
                third,
            )
        )
        assert view.recorder.drop_reasons() == {"sequence": 1, "protocol": 1}

    def test_aal34_tag_and_length(self):
        bad_tag = bytearray(build_cpcs_pdu_34(bytes(200), 5))
        bad_tag[-3] ^= 0xFF  # ETag
        bad_length = bytearray(build_cpcs_pdu_34(bytes(200), 6))
        bad_length[-1] ^= 0x04  # Length low byte
        view = observed(
            lambda sim: aal34_receiver(
                sim, aal34_cells(bytes(bad_tag)), aal34_cells(bytes(bad_length))
            )
        )
        assert view.recorder.drop_reasons() == {"tag-mismatch": 1, "length": 1}


class TestTransmitAndControl:
    def test_transmit_buffer_stall(self):
        def build(sim):
            small = replace(
                aurora_oc3(), buffer_memory=BufferMemorySpec(capacity_cells=100)
            )
            a = HostNetworkInterface(sim, small, name="a")
            b = HostNetworkInterface(sim, aurora_oc3(), name="b")
            connect(sim, a, b)
            vc = a.open_vc()
            b.open_vc(address=vc.address)
            a.send(vc.address, bytes(9180))  # 192 cells never fit in 100

        view = observed(build, until=1e-3)
        assert "tx.pdu.bufstall" in names(view)
        assert "link.cell.sent" not in names(view)

    def test_oam_ping_timeout(self):
        def build(sim):
            a = HostNetworkInterface(sim, aurora_oc3(), name="a")
            b = HostNetworkInterface(sim, aurora_oc3(), name="b")
            dead = UniformLoss(1.0, rng=RandomStreams(1).stream("dead"))
            connect(sim, a, b, loss_ab=dead)
            vc = a.open_vc()
            b.open_vc(address=vc.address)
            a.oam_ping(vc.address, timeout=1e-4)

        view = observed(build)
        assert "oam.ping.timeout" in names(view)
        assert view.recorder.drop_reasons() == {"link_lost": 1}
        assert view.ledger.snapshot().is_conserved

    def test_clp_first_discard_and_efci(self):
        def build(sim):
            crawl = LinkSpec("crawl", 424.0, 424.0)  # one cell per second
            link = PhysicalLink(sim, crawl, sink=lambda cell: None, name="crawl")
            port = OutputPort(
                sim, link, buffer_cells=10, clp_threshold=3, efci_threshold=2
            )
            for clp in (0, 0, 0, 0, 1):  # one serializes, three queue
                port.offer(AtmCell(vpi=0, vci=60, payload=bytes(48), clp=clp))

        view = observed(build)
        assert view.recorder.drop_reasons() == {"clp": 1}
        assert "port.efci" in names(view)

    def test_admission_reject(self):
        def build(sim):
            link = PhysicalLink(sim, aurora_oc3().link, sink=lambda c: None)
            cac = CallAdmissionController(sim)
            cac.add_link(link, peak_budget=100.0)  # cells/s
            a = HostNetworkInterface(sim, aurora_oc3(), name="a")
            b = HostNetworkInterface(sim, aurora_oc3(), name="b")
            connect(sim, a, b)
            caller = SignallingAgent(sim, a)
            cac.guard(SignallingAgent(sim, b))
            caller.place_call(peak_rate_bps=1e6)

        view = observed(build)
        assert "cac.reject" in names(view)

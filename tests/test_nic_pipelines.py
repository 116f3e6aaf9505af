"""TX/RX pipeline behaviour in isolation."""

from dataclasses import replace

import pytest

from repro.aal.aal5 import Aal5Segmenter, cells_for_sdu
from repro.aal.interface import AalError
from repro.atm import AtmCell, PhysicalLink, VcAddress
from repro.atm.link import LinkSpec
from repro.nic import HostNetworkInterface, aurora_oc3, connect
from repro.nic.config import NicConfig
from repro.workloads.generators import make_payload

PAYLOAD = bytes(48)


def build_nic(sim, config=None, name="nic"):
    return HostNetworkInterface(
        sim, config if config is not None else aurora_oc3(), name=name
    )


class TestTxPipeline:
    def test_cells_reach_the_wire(self, sim):
        nic = build_nic(sim)
        wire = []
        link = PhysicalLink(sim, nic.config.link, sink=wire.append)
        nic.attach_tx_link(link)
        vc = nic.open_vc()
        nic.post(vc.address, b"x" * 200)
        sim.run(until=0.01)
        assert len(wire) == cells_for_sdu(200)
        assert wire[-1].end_of_frame
        assert all((c.vpi, c.vci) == tuple(vc.address) for c in wire)

    def test_cells_carry_latency_metadata(self, sim):
        nic = build_nic(sim)
        wire = []
        link = PhysicalLink(sim, nic.config.link, sink=wire.append)
        nic.attach_tx_link(link)
        vc = nic.open_vc()
        nic.post(vc.address, b"x" * 50)
        sim.run(until=0.01)
        assert all("posted_at" in c.meta and "pdu_id" in c.meta for c in wire)

    def test_send_to_unopened_vc_rejected(self, sim):
        nic = build_nic(sim)
        with pytest.raises(ValueError):
            nic.send(VcAddress(0, 999), b"data")

    @pytest.mark.parametrize(
        "config, sdu, uu",
        [
            (aurora_oc3(), bytes(70000), 0),
            (aurora_oc3(), b"data", 256),
            (aurora_oc3(), b"data", -1),
            (aurora_oc3().with_aal34(), bytes(70000), 0),
        ],
        ids=["aal5-oversize", "aal5-uu-256", "aal5-uu-negative", "aal34-oversize"],
    )
    def test_sdu_the_aal_cannot_carry_rejected_at_send(self, sim, config, sdu, uu):
        a = build_nic(sim, config, name="a")
        b = build_nic(sim, config, name="b")
        connect(sim, a, b)
        vc = a.open_vc()
        b.open_vc(address=vc.address)
        received = []
        b.on_pdu = received.append
        with pytest.raises(AalError):
            a.post(vc.address, sdu, user_indication=uu)
        # Nothing was posted, and the engine still serves the next PDU.
        a.post(vc.address, b"valid")
        sim.run(until=0.01)
        assert [c.sdu for c in received] == [b"valid"]

    def test_pdus_sent_in_order(self, sim):
        nic = build_nic(sim)
        wire = []
        link = PhysicalLink(sim, nic.config.link, sink=wire.append)
        nic.attach_tx_link(link)
        vc = nic.open_vc()
        for marker in (b"\x01", b"\x02", b"\x03"):
            nic.post(vc.address, marker * 40)
        sim.run(until=0.01)
        firsts = [c.payload[0] for c in wire if c.end_of_frame]
        assert firsts == [1, 2, 3]

    def test_tx_stats(self, sim):
        nic = build_nic(sim)
        link = PhysicalLink(sim, nic.config.link, sink=lambda c: None)
        nic.attach_tx_link(link)
        vc = nic.open_vc()
        nic.post(vc.address, b"x" * 100)
        sim.run(until=0.01)
        assert nic.tx_engine.pdus_sent.count == 1
        assert nic.tx_engine.cells_sent.count == cells_for_sdu(100)
        assert nic.tx_clock.total_cycles > 0

    def test_engine_charges_expected_cycles(self, sim):
        nic = build_nic(sim)
        link = PhysicalLink(sim, nic.config.link, sink=lambda c: None)
        nic.attach_tx_link(link)
        vc = nic.open_vc()
        size = 200
        nic.post(vc.address, b"x" * size)
        sim.run(until=0.01)
        expected = nic.config.tx_costs.pdu_total_cycles(cells_for_sdu(size))
        assert nic.tx_clock.total_cycles == pytest.approx(expected)


class TestRxPipeline:
    def feed(self, sim, nic, vc, sdu):
        for cell in Aal5Segmenter(vc).segment(sdu):
            nic.rx_engine.receive_cell(cell)

    def test_delivers_pdu_to_host(self, sim):
        nic = build_nic(sim)
        received = []
        nic.on_pdu = received.append
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        self.feed(sim, nic, vc.address, b"payload-bytes")
        sim.run(until=0.01)
        assert len(received) == 1
        assert received[0].sdu == b"payload-bytes"

    def test_unknown_vc_cells_counted_and_dropped(self, sim):
        nic = build_nic(sim)
        received = []
        nic.on_pdu = received.append
        nic.start()
        self.feed(sim, nic, VcAddress(0, 999), b"orphan")
        sim.run(until=0.01)
        assert received == []
        assert nic.rx_engine.cells_unknown_vc.count == 1

    def test_closed_vc_stops_reception(self, sim):
        nic = build_nic(sim)
        received = []
        nic.on_pdu = received.append
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        nic.close_vc(vc.address)
        self.feed(sim, nic, VcAddress(0, 100), b"late")
        sim.run(until=0.01)
        assert received == []

    def test_host_buffer_exhaustion_drops_pdus(self, sim):
        from dataclasses import replace

        config = replace(aurora_oc3(), rx_buffer_slots=1)
        nic = build_nic(sim, config)
        # Hold the only buffer hostage.
        hostage = nic.rx_buffers.allocate()
        assert hostage is not None
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        self.feed(sim, nic, vc.address, b"data")
        sim.run(until=0.01)
        assert nic.rx_engine.pdus_no_host_buffer.count == 1

    def test_reassembly_timeout_reclaims_context(self, sim):
        nic = build_nic(sim)
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        cells = Aal5Segmenter(vc.address).segment(b"x" * 300)
        for cell in cells[:-1]:  # tail never arrives
            nic.rx_engine.receive_cell(cell)
        sim.run(until=0.05)
        assert nic.rx_engine.reassembler.has_context(vc.address)
        sim.run(until=1.0)
        assert not nic.rx_engine.reassembler.has_context(vc.address)
        assert nic.reassembly_timers.expirations.count == 1
        assert nic.buffer_memory.used_cells == 0

    def test_buffer_memory_reclaimed_after_delivery(self, sim):
        nic = build_nic(sim)
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        self.feed(sim, nic, vc.address, b"y" * 500)
        sim.run(until=0.01)
        assert nic.buffer_memory.used_cells == 0

    def test_corrupted_pdu_counted_not_delivered(self, sim):
        nic = build_nic(sim)
        received = []
        nic.on_pdu = received.append
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        cells = Aal5Segmenter(vc.address).segment(make_payload(300))
        bad = bytearray(cells[1].payload)
        bad[0] ^= 1
        cells[1] = AtmCell(
            vpi=cells[1].vpi, vci=cells[1].vci, payload=bytes(bad), pti=cells[1].pti
        )
        for cell in cells:
            nic.rx_engine.receive_cell(cell)
        sim.run(until=0.01)
        assert received == []
        assert nic.stats().pdus_discarded == 1

    def test_engine_charges_expected_cycles(self, sim):
        nic = build_nic(sim)
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        size = 500
        self.feed(sim, nic, vc.address, b"z" * size)
        sim.run(until=0.01)
        expected = nic.config.rx_costs.pdu_total_cycles(
            cells_for_sdu(size), cam_fitted=True, table_size=1
        )
        assert nic.rx_clock.cycles_by_tag["rx-cell"] == pytest.approx(expected)


def spy_on_work(sim, clock):
    """Log each charge and its completion as (what, tag, entry, time).

    *entry* is ``sim.events_processed`` at the moment: two records with
    the same entry ran inside the same queue entry.
    """
    log = []
    work = clock.work

    def spied(cycles, tag, then, *args):
        log.append(("charge", tag, sim.events_processed, sim.now))

        def done(*done_args):
            log.append(("done", tag, sim.events_processed, sim.now))
            then(*done_args)

        work(cycles, tag, done, *args)

    clock.work = spied
    return log


class TestEngineHandOffs:
    """The engines take and give cells with no wake-up entry."""

    def test_rx_engine_starts_inside_the_link_delivery(self, sim):
        nic = build_nic(sim)
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        log = spy_on_work(sim, nic.rx_clock)
        deliveries = []

        def deliver(cell):
            deliveries.append((sim.events_processed, sim.now))
            nic.rx_engine.receive_cell(cell)

        link = PhysicalLink(sim, nic.config.link, sink=deliver)
        (cell,) = Aal5Segmenter(vc.address).segment(b"one cell")
        link.send(cell)
        sim.run(until=1e-3)
        (delivered,) = deliveries
        (charge, done) = log
        # Charged from the empty FIFO inside the delivery entry ...
        assert charge[:3] == ("charge", "rx-cell", delivered[0])
        assert charge[3] == delivered[1]
        # ... and finished exactly one charge later.
        cycles = nic.rx_clock.cycles_by_tag["rx-cell"]
        assert done[0] == "done"
        assert done[3] == delivered[1] + nic.config.rx_engine.seconds_for(cycles)

    def test_rx_engine_serves_queued_cells_in_order_from_its_completions(
        self, sim
    ):
        nic = build_nic(sim)
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        log = spy_on_work(sim, nic.rx_clock)
        served = []
        nic.rx_engine.on_user_cell = served.append
        cells = Aal5Segmenter(vc.address).segment(make_payload(100))
        assert len(cells) == 3

        def burst():
            for cell in cells:
                nic.rx_engine.receive_cell(cell)

        sim.schedule_call(1e-6, burst)
        sim.run(until=1e-3)
        assert served == cells
        charges = [entry for what, _, entry, _ in log if what == "charge"]
        dones = [entry for what, _, entry, _ in log if what == "done"]
        # Each queued cell is taken inside the previous cell's completion.
        assert charges[1:] == dones[:-1]

    def test_tx_engine_resumes_in_the_wire_out_that_frees_its_slot(self, sim):
        config = replace(aurora_oc3(), tx_fifo_cells=1)
        nic = build_nic(sim, config)
        wire = []
        wire_outs = set()

        def sink(cell):
            wire.append(cell.vci)
            wire_outs.add(sim.events_processed)

        # A slow line, so the management cells below are still queued
        # when the engine offers its first data cell.
        slow = LinkSpec("slow", 1.06e6, 1.06e6)
        nic.attach_tx_link(PhysicalLink(sim, slow, sink=sink))
        vc = nic.open_vc(address=VcAddress(0, 100))
        log = spy_on_work(sim, nic.tx_clock)
        # Three process put()s: one on the wire, one queued, one stalled
        # before the engine's first offer.
        for vci in (7, 8, 9):
            nic.inject_cell(AtmCell(vpi=0, vci=vci, payload=PAYLOAD))
        nic.post(vc.address, make_payload(200))
        sim.run(until=0.1)
        # Oldest stalled producer first: the put() before the engine.
        assert wire == [7, 8, 9] + [100] * cells_for_sdu(200)
        charges = [
            entry for what, tag, entry, _ in log
            if what == "charge" and tag == "tx-cell"
        ]
        first_offer = next(
            time for what, tag, _, time in log
            if what == "done" and tag == "tx-cell"
        )
        assert first_offer < slow.cell_time  # cell 9's put() still stalled
        # Every cell waited for a slot, so each cell after the first is
        # charged inside the wire-out entry that admitted the previous
        # cell, never in an entry of its own.
        assert len(charges) == cells_for_sdu(200)
        assert all(entry in wire_outs for entry in charges[1:])


class TestDescriptorHandOffs:
    """The transmit engine takes descriptors with no wake-up entry."""

    def test_engine_takes_each_descriptor_inside_the_entry_that_frees_it(
        self, sim
    ):
        nic = build_nic(sim)
        nic.attach_tx_link(PhysicalLink(sim, nic.config.link, sink=lambda c: None))
        vc = nic.open_vc()
        log = spy_on_work(sim, nic.tx_clock)
        posts = []
        offer = nic.tx_ring.offer

        def spied(descriptor, *resume):
            posts.append(sim.events_processed)
            return offer(descriptor, *resume)

        nic.tx_ring.offer = spied
        # The first PDU still occupies the engine when the second posts.
        sent = [nic.send(vc.address, b"x" * size) for size in (9180, 100)]
        fired = []
        for event in sent:
            event.add_callback(lambda ev: fired.append(sim.events_processed))
        sim.run(until=0.01)
        prologues = [
            entry for what, tag, entry, _ in log
            if what == "charge" and tag == "tx-pdu-prologue"
        ]
        completions = [
            entry for what, tag, entry, _ in log
            if what == "done" and tag == "tx-pdu-completion"
        ]
        # The first post finds the engine waiting on the empty ring and
        # hands the descriptor straight over; the second descriptor is
        # taken inside the entry that completes the first PDU.
        assert prologues == [posts[0], completions[0]]
        assert posts[1] < completions[0]
        # send()'s event still fires from an entry of its own.
        assert all(f > p for f, p in zip(fired, posts))
        assert [event.value.size for event in sent] == [9180, 100]

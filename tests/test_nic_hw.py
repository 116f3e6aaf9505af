"""NIC hardware assists: FIFOs, CAM, buffer memory, descriptor rings."""

import pytest

from repro.atm import AtmCell
from repro.nic import AdaptorBufferMemory, BufferMemorySpec, Cam, CellFifo
from repro.nic.cam import CamFullError
from repro.nic.descriptors import DescriptorRing, TxDescriptor
from repro.atm.addressing import VcAddress

PAYLOAD = bytes(48)


def cell(vci=100):
    return AtmCell(vpi=0, vci=vci, payload=PAYLOAD)


class TestCellFifo:
    def test_try_put_drops_when_full(self, sim):
        fifo = CellFifo(sim, depth_cells=2)
        assert fifo.try_put(cell())
        assert fifo.try_put(cell())
        assert not fifo.try_put(cell())
        assert fifo.overflows.count == 1
        assert fifo.loss_ratio == pytest.approx(1 / 3)

    def test_blocking_put_stalls_producer(self, sim):
        fifo = CellFifo(sim, depth_cells=1)
        accepted = []

        def producer():
            yield fifo.put(cell())
            accepted.append(sim.now)
            yield fifo.put(cell())
            accepted.append(sim.now)

        def consumer():
            yield sim.timeout(1.0)
            fifo.try_get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert accepted == [0.0, 1.0]

    def test_pull_waits_for_cell(self, sim):
        fifo = CellFifo(sim, depth_cells=4)
        got = []
        fifo.pull(lambda c: got.append((sim.now, c.vci)))

        def producer():
            yield sim.timeout(0.5)
            fifo.try_put(cell(vci=7))

        sim.process(producer())
        sim.run()
        assert got == [(0.5, 7)]
        assert fifo.cells_in == fifo.cells_out == 1
        assert len(fifo) == 0

    def test_pull_takes_queued_cells_in_order(self, sim):
        fifo = CellFifo(sim, depth_cells=4)
        for vci in (1, 2, 3):
            fifo.try_put(cell(vci=vci))
        got = []
        for _ in range(3):
            fifo.pull(lambda c: got.append(c.vci))
        assert got == [1, 2, 3]
        assert sim.events_processed == 0 and sim.pending_events() == 0

    def test_offer_stalls_then_resumes_inside_the_freeing_pull(self, sim):
        fifo = CellFifo(sim, depth_cells=1)
        log = []
        assert fifo.offer(cell(vci=1), lambda: log.append("not stalled"))
        assert not fifo.offer(cell(vci=2), lambda: log.append(("resumed", len(fifo))))
        assert log == []
        fifo.pull(lambda c: log.append(("consumer", c.vci)))
        # The producer resumes in the same call, after the consumer has
        # its cell, with its own cell already in; no queue entry is made.
        assert log == [("consumer", 1), ("resumed", 1)]
        assert sim.pending_events() == 0
        assert fifo.try_get().vci == 2

    def test_stalled_offer_resumes_with_its_args(self, sim):
        # offer(cell, resume, *args): the pull that admits a stalled
        # cell calls resume(*args), at the pull's own instant.
        fifo = CellFifo(sim, depth_cells=1)
        events = []

        def accepted(vci, how):
            events.append((vci, how, sim.now))

        for vci in (1, 2):
            if fifo.offer(cell(vci=vci), accepted, vci, "resumed"):
                accepted(vci, "at once")
        sim.schedule_call(3.0, fifo.pull, lambda c: None)
        sim.run()
        assert events == [(1, "at once", 0.0), (2, "resumed", 3.0)]
        assert fifo.try_get().vci == 2

    def test_stalled_producers_are_admitted_oldest_first(self, sim):
        fifo = CellFifo(sim, depth_cells=1)
        assert fifo.offer(cell(vci=1), lambda: None)
        log = []

        def producer():
            yield fifo.put(cell(vci=2))
            log.append("put resumed")

        sim.process(producer())
        sim.run()  # the process is now stalled on the full FIFO
        assert not fifo.offer(cell(vci=3), lambda: log.append("offer resumed"))
        got = []
        fifo.pull(lambda c: got.append(c.vci))  # admits the put() cell
        assert log == []  # put() resumes from its own event entry
        sim.run()
        assert log == ["put resumed"]
        fifo.pull(lambda c: got.append(c.vci))  # admits the offer's cell
        assert log == ["put resumed", "offer resumed"]
        fifo.pull(lambda c: got.append(c.vci))
        assert got == [1, 2, 3]
        assert fifo.cells_in == fifo.cells_out == 3

    def test_occupancy_is_time_weighted(self, sim):
        # Dyadic instants keep every integral exact, so == is safe.
        fifo = CellFifo(sim, depth_cells=2)
        occupancy = fifo.track_occupancy()
        got, resumed = [], []

        def drive():
            yield sim.timeout(0.25)
            assert fifo.try_put(cell(vci=1))  # level 1
            yield sim.timeout(0.25)
            assert fifo.try_put(cell(vci=2))  # level 2: full
            yield sim.timeout(0.5)
            assert not fifo.offer(cell(vci=3), lambda: resumed.append(sim.now))
            yield sim.timeout(0.5)
            fifo.pull(lambda c: got.append(c.vci))  # admits vci 3: still 2
            for _ in range(2):  # drain: 1, then 0
                yield sim.timeout(0.5)
                fifo.pull(lambda c: got.append(c.vci))
            yield sim.timeout(0.5)
            fifo.pull(lambda c: got.append(c.vci))  # waits on the empty FIFO
            yield sim.timeout(0.5)
            assert fifo.try_put(cell(vci=4))  # handed straight over
            yield sim.timeout(0.5)

        sim.process(drive())
        sim.run()
        assert got == [1, 2, 3, 4] and resumed == [1.5]
        # 1 over [0.25, 0.5), 2 over [0.5, 2.0), 1 over [2.0, 2.5), then 0.
        assert occupancy.mean(4.0) == (0.25 + 2 * 1.5 + 0.5) / 4.0
        assert occupancy.mean(4.0) == 0.9375
        assert occupancy.maximum == 2
        assert fifo.occupancy is occupancy is fifo.track_occupancy()
        assert len(fifo) == 0 and fifo.cells_in == fifo.cells_out == 4

    def test_time_weighted_occupancy_only_when_asked_before_a_cell(self, sim):
        # A FIFO nobody asks keeps only its peak; one that has taken a
        # cell can no longer start the stat.
        fifo = CellFifo(sim, depth_cells=1)
        fifo.try_put(cell())
        fifo.pull(lambda c: None)
        assert fifo.occupancy is None and fifo.peak_occupancy == 1
        with pytest.raises(RuntimeError, match="after the first cell"):
            fifo.track_occupancy()

    def test_try_get(self, sim):
        fifo = CellFifo(sim, depth_cells=4)
        assert fifo.try_get() is None
        fifo.try_put(cell(vci=9))
        assert fifo.try_get().vci == 9

    def test_occupancy_tracking(self, sim):
        fifo = CellFifo(sim, depth_cells=8)
        for _ in range(5):
            fifo.try_put(cell())
        assert fifo.peak_occupancy == 5
        assert len(fifo) == 5

    def test_counters(self, sim):
        fifo = CellFifo(sim, depth_cells=8)
        fifo.try_put(cell())
        fifo.try_put(cell())
        fifo.try_get()
        assert fifo.cells_in == 2
        assert fifo.cells_out == 1

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            CellFifo(sim, depth_cells=0)

    def test_dropped_cell_never_counted_as_accepted(self, sim):
        """Accounting invariant: cells_in and overflows are disjoint.

        A rejected try_put must not leak into the accepted ledger, or
        the conservation audit would double-count every dropped cell.
        """
        fifo = CellFifo(sim, depth_cells=3)
        for _ in range(10):
            fifo.try_put(cell())
        assert fifo.cells_in == 3
        assert fifo.overflows.count == 7
        assert fifo.cells_offered == 10
        # Draining changes neither input-side bucket.
        while fifo.try_get() is not None:
            pass
        assert fifo.cells_in == 3 and fifo.overflows.count == 7
        assert fifo.cells_out == 3
        assert fifo.loss_ratio == pytest.approx(0.7)

    def test_fill_fraction(self, sim):
        fifo = CellFifo(sim, depth_cells=4)
        assert fifo.fill_fraction == 0.0
        fifo.try_put(cell())
        fifo.try_put(cell())
        assert fifo.fill_fraction == pytest.approx(0.5)


class TestCam:
    def test_install_lookup_remove(self):
        cam = Cam(capacity=4)
        cam.install(VcAddress(0, 100), "ctx")
        assert cam.lookup(VcAddress(0, 100)) == "ctx"
        assert cam.remove(VcAddress(0, 100)) == "ctx"
        assert cam.lookup(VcAddress(0, 100)) is None

    def test_capacity_enforced(self):
        cam = Cam(capacity=2)
        cam.install(VcAddress(0, 1), 1)
        cam.install(VcAddress(0, 2), 2)
        with pytest.raises(CamFullError):
            cam.install(VcAddress(0, 3), 3)
        assert cam.free_entries == 0

    def test_reinstall_same_key_is_update(self):
        cam = Cam(capacity=1)
        cam.install("k", 1)
        cam.install("k", 2)  # no CamFullError
        assert cam.lookup("k") == 2

    def test_hit_ratio(self):
        cam = Cam(capacity=4)
        cam.install("k", 1)
        cam.lookup("k")
        cam.lookup("miss")
        assert cam.hits == 1 and cam.misses == 1
        assert cam.hit_ratio == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Cam(capacity=0)

    def test_fault_hook_forces_misses(self):
        cam = Cam(capacity=4)
        cam.install("k", 1)
        cam.fault_hook = lambda key: key == "k"
        assert cam.lookup("k") is None
        assert cam.forced_misses == 1 and cam.misses == 1
        cam.fault_hook = None
        assert cam.lookup("k") == 1  # entry was never actually lost


class TestBufferMemory:
    def spec(self, cells=100):
        return BufferMemorySpec(capacity_cells=cells, width_bytes=4, clock_hz=25e6)

    def test_allocate_and_release(self, sim):
        mem = AdaptorBufferMemory(sim, self.spec())
        assert mem.allocate("ctx", 10)
        assert mem.used_cells == 10
        assert mem.held_by("ctx") == 10
        assert mem.release("ctx") == 10
        assert mem.used_cells == 0

    def test_exhaustion_counted(self, sim):
        mem = AdaptorBufferMemory(sim, self.spec(cells=5))
        assert mem.allocate("a", 5)
        assert not mem.allocate("b", 1)
        assert mem.allocation_failures == 1

    def test_allocate_extends_an_owner_up_to_capacity(self, sim):
        # The RX engine grows a reassembly context one cell at a time.
        mem = AdaptorBufferMemory(sim, self.spec(cells=3))
        assert mem.allocate("ctx", 1)
        assert mem.allocate("ctx", 2)
        assert mem.held_by("ctx") == 3 and mem.free_cells == 0
        assert not mem.allocate("ctx", 1)
        assert mem.held_by("ctx") == 3
        assert mem.allocation_failures == 1

    def test_bandwidth_ledger(self, sim):
        mem = AdaptorBufferMemory(sim, self.spec())
        mem.bytes_written += 480
        mem.bytes_read += 480
        sim.timeout(1e-3)
        sim.run()
        assert mem.required_bandwidth_bps(1e-3) == pytest.approx(960 * 8 / 1e-3)
        assert mem.bandwidth_headroom(1e-3) > 0

    def test_headroom_infinite_when_idle(self, sim):
        mem = AdaptorBufferMemory(sim, self.spec())
        assert mem.bandwidth_headroom(1.0) == float("inf")

    def test_dual_port_doubles_bandwidth(self):
        single = BufferMemorySpec(100, 4, 25e6, dual_ported=False)
        dual = BufferMemorySpec(100, 4, 25e6, dual_ported=True)
        assert dual.total_bandwidth_bps == 2 * single.total_bandwidth_bps

    def test_fill_fraction_and_pressure(self, sim):
        mem = AdaptorBufferMemory(sim, self.spec(cells=10))
        mem.allocate("ctx", 8)
        assert mem.fill_fraction == pytest.approx(0.8)
        assert mem.under_pressure(reserve_cells=3)  # only 2 free
        assert not mem.under_pressure(reserve_cells=2)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            BufferMemorySpec(capacity_cells=0)
        mem = AdaptorBufferMemory(sim, self.spec())
        with pytest.raises(ValueError):
            mem.allocate("x", -1)


class TestDescriptorRing:
    def test_post_take_order(self, sim):
        ring = DescriptorRing(sim, depth=4)
        taken = []

        def consumer(desc):
            taken.append(desc.pdu_id)
            if len(taken) < 2:
                ring.pull(consumer)

        d1 = TxDescriptor(VcAddress(0, 100), b"a", posted_at=0.0)
        d2 = TxDescriptor(VcAddress(0, 100), b"b", posted_at=0.0)
        ring.try_put(d1)
        ring.try_put(d2)
        ring.pull(consumer)
        sim.run()
        assert taken == [d1.pdu_id, d2.pdu_id]

    def test_callback_forms_hand_over_in_the_calling_entry(self, sim):
        # pull() from an empty ring is handed the next offered
        # descriptor at once; offer() to a full ring waits, and the pull
        # that makes room runs its consumer before the admitted producer
        # resumes.
        ring = DescriptorRing(sim, depth=1)
        log = []
        ring.pull(lambda item: log.append(("got", item)))
        assert ring.offer("a", log.append, "never")
        assert ring.offer("b", log.append, "never")
        assert not ring.offer("c", log.append, ("resumed", "c"))
        ring.pull(lambda item: log.append(("got", item)))
        assert log == [("got", "a"), ("got", "b"), ("resumed", "c")]
        assert ring.try_get() == "c"
        assert sim.pending_events() == 0

    def test_consumer_that_pulls_again_takes_items_in_order(self, sim):
        # A depth-1 ring holds a with b stalled behind it.  The pull
        # that takes a puts b in before its consumer runs, so a consumer
        # that pulls again inside its callback takes b, not a later c.
        ring = DescriptorRing(sim, depth=1)
        taken = []

        def consumer(item):
            taken.append(item)
            ring.pull(consumer)

        assert ring.offer("a", lambda: None)
        assert not ring.offer("b", lambda: None)
        ring.pull(consumer)
        assert ring.offer("c", lambda: None)
        assert taken == ["a", "b", "c"]

    def test_full_ring_backpressures(self, sim):
        ring = DescriptorRing(sim, depth=1)
        ring.try_put(TxDescriptor(VcAddress(0, 100), b"a", 0.0))
        assert not ring.try_put(TxDescriptor(VcAddress(0, 100), b"b", 0.0))
        assert ring.is_full

    def test_pdu_ids_unique(self):
        a = TxDescriptor(VcAddress(0, 100), b"", 0.0)
        b = TxDescriptor(VcAddress(0, 100), b"", 0.0)
        assert a.pdu_id != b.pdu_id

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            DescriptorRing(sim, depth=0)

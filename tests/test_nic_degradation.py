"""Graceful degradation in the receive path: EPD/PPD, quotas, HEC.

These tests drive the admission-side frame filter and the reassembly
context quota directly, through a real interface (no engine shortcuts),
and pin the itemised accounting each mechanism must produce.
"""

from dataclasses import replace

import pytest

from repro.aal.aal5 import Aal5Segmenter
from repro.aal.interface import ReassemblyFailure
from repro.atm.addressing import VcAddress
from repro.atm.cell import PTI_USER_SDU0, AtmCell
from repro.nic.config import aurora_oc3
from repro.nic.nic import HostNetworkInterface
from repro.nic.rx import FrameDiscardPolicy

PAYLOAD = bytes(48)


def mid_cell(vci):
    return AtmCell(vpi=0, vci=vci, payload=PAYLOAD, pti=PTI_USER_SDU0)


def frame_cells(vci, sdu_size=200):
    return Aal5Segmenter(VcAddress(0, vci)).segment(bytes(sdu_size))


def make_receiver(sim, **overrides):
    config = replace(aurora_oc3(), **overrides)
    nic = HostNetworkInterface(sim, config, name="rx-degr")
    for vci in range(100, 110):
        nic.open_vc(address=VcAddress(0, vci))
    return nic


class TestFrameDiscardPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrameDiscardPolicy(fifo_threshold=0.0)
        with pytest.raises(ValueError):
            FrameDiscardPolicy(fifo_threshold=1.5)
        with pytest.raises(ValueError):
            FrameDiscardPolicy(bufmem_reserve_cells=-1)

    def test_quota_requires_capable_reassembler(self, sim):
        config = replace(aurora_oc3().with_aal34(), reassembly_quota=4)
        with pytest.raises(ValueError):
            HostNetworkInterface(sim, config, name="bad")


class TestHecDiscard:
    def test_marked_cell_dies_before_the_fifo(self, sim):
        nic = make_receiver(sim)
        cell = mid_cell(100)
        cell.meta["hec_error"] = True
        nic.rx_input.receive_cell(cell)
        assert nic.rx_engine.cells_hec_discarded.count == 1
        assert len(nic.rx_fifo) == 0

    def test_clean_cell_admitted(self, sim):
        nic = make_receiver(sim)
        nic.rx_input.receive_cell(mid_cell(100))
        assert nic.rx_engine.cells_hec_discarded.count == 0
        assert len(nic.rx_fifo) == 1


class TestEarlyPacketDiscard:
    def test_refuses_whole_frame_under_pressure(self, sim):
        """Past the threshold, a new frame is refused in full -- EOF too."""
        nic = make_receiver(
            sim, frame_discard=FrameDiscardPolicy(fifo_threshold=0.5)
        )
        rx = nic.rx_engine
        # Engine not started: admitted cells pile up in the FIFO.
        for _ in range(40):  # 40/64 > 0.5: pressure
            nic.rx_input.receive_cell(mid_cell(100))
        frame = frame_cells(101)
        for cell in frame:
            nic.rx_input.receive_cell(cell)
        assert rx.frames_discarded_early.count == 1
        assert rx.cells_epd_discarded.count == len(frame)
        assert len(nic.rx_fifo) == 40  # nothing of the frame admitted
        assert rx.fifo.overflows.count == 0  # refused, not overflowed

    def test_single_cell_frame_leaves_no_state(self, sim):
        nic = make_receiver(
            sim, frame_discard=FrameDiscardPolicy(fifo_threshold=0.1)
        )
        for _ in range(10):
            nic.rx_input.receive_cell(mid_cell(100))
        (only_cell,) = frame_cells(101, sdu_size=20)[:1]
        nic.rx_input.receive_cell(only_cell)
        # The next frame on the VC is judged fresh, not mid-discard.
        assert not nic.rx_engine._discarding

    def test_mid_frame_vc_is_exempt(self, sim):
        """EPD only gates *new* frames; an accepted frame finishes."""
        nic = make_receiver(
            sim, frame_discard=FrameDiscardPolicy(fifo_threshold=0.5)
        )
        frame = frame_cells(101)
        nic.rx_input.receive_cell(frame[0])  # admitted before pressure
        for _ in range(40):
            nic.rx_input.receive_cell(mid_cell(100))
        for cell in frame[1:]:
            nic.rx_input.receive_cell(cell)
        assert nic.rx_engine.frames_discarded_early.count == 0
        assert nic.rx_engine.cells_epd_discarded.count == 0

    def test_disabled_policy_never_engages(self, sim):
        nic = make_receiver(
            sim, frame_discard=FrameDiscardPolicy(epd=False, fifo_threshold=0.1)
        )
        for _ in range(30):
            nic.rx_input.receive_cell(mid_cell(100))
        for cell in frame_cells(101):
            nic.rx_input.receive_cell(cell)
        assert nic.rx_engine.frames_discarded_early.count == 0

    def test_bufmem_reserve_triggers_epd(self, sim):
        nic = make_receiver(
            sim,
            frame_discard=FrameDiscardPolicy(
                fifo_threshold=1.0, bufmem_reserve_cells=8
            ),
        )
        nic.buffer_memory.allocate("hog", nic.buffer_memory.spec.capacity_cells - 4)
        for cell in frame_cells(101):
            nic.rx_input.receive_cell(cell)
        assert nic.rx_engine.frames_discarded_early.count == 1


class TestPartialPacketDiscard:
    def test_overflow_truncates_rest_but_admits_eof(self, sim):
        nic = make_receiver(
            sim,
            rx_fifo_cells=4,
            frame_discard=FrameDiscardPolicy(epd=False, ppd=True),
        )
        rx = nic.rx_engine
        frame = frame_cells(101, sdu_size=500)  # 11 cells
        assert len(frame) > 6
        for cell in frame[:-1]:
            nic.rx_input.receive_cell(cell)
        # 4 admitted, 1 overflowed (counted by the FIFO), rest PPD.
        assert rx.fifo.overflows.count == 1
        assert rx.frames_truncated.count == 1
        assert rx.cells_ppd_discarded.count == len(frame) - 1 - 4 - 1
        # Make room so the EOF can delineate the truncated frame.
        rx.fifo.try_get()
        nic.rx_input.receive_cell(frame[-1])
        assert len(nic.rx_fifo) == 4  # EOF admitted
        assert not rx._discarding and not rx._mid_frame

    def test_first_cell_overflow_discards_eof_too(self, sim):
        """Nothing admitted means the frame can vanish without a trace."""
        nic = make_receiver(
            sim,
            rx_fifo_cells=4,
            frame_discard=FrameDiscardPolicy(epd=False, ppd=True),
        )
        rx = nic.rx_engine
        for _ in range(4):
            nic.rx_input.receive_cell(mid_cell(100))  # fill the FIFO
        frame = frame_cells(101)
        for cell in frame:
            nic.rx_input.receive_cell(cell)
        assert rx.fifo.overflows.count == 1  # only the first cell
        assert rx.cells_epd_discarded.count == len(frame) - 1  # EOF included
        assert not rx._discarding

    def test_ppd_off_drops_cell_by_cell(self, sim):
        nic = make_receiver(
            sim,
            rx_fifo_cells=4,
            frame_discard=FrameDiscardPolicy(epd=False, ppd=False),
        )
        frame = frame_cells(101, sdu_size=500)
        for cell in frame:
            nic.rx_input.receive_cell(cell)
        assert nic.rx_engine.frames_truncated.count == 0
        assert nic.rx_engine.fifo.overflows.count == len(frame) - 4


class TestContextQuota:
    def test_oldest_context_evicted_and_reclaimed(self, sim):
        nic = make_receiver(sim, reassembly_quota=2)
        nic.start()
        rx = nic.rx_engine

        def feed():
            for vci in (100, 101, 102):  # three opens against quota 2
                nic.rx_input.receive_cell(mid_cell(vci))
                yield sim.timeout(1e-5)

        sim.process(feed())
        victim = VcAddress(0, 100)
        bufmem = nic.buffer_memory
        # Before the third open: the victim holds its cell, under the
        # ledger's key for its context.
        sim.run(until=1.5e-5)
        assert rx.reassembler.has_context(victim)
        assert bufmem.held_by(victim) == 1 and bufmem.used_cells == 2
        sim.run(until=1e-3)
        stats = rx.reassembler.stats
        assert rx.reassembler.active_contexts() == 2
        assert stats.failure_count(ReassemblyFailure.QUOTA) == 1
        assert stats.cells_discarded_by[ReassemblyFailure.QUOTA] == 1
        # Oldest (vci 100) was the victim; its buffer cell was reclaimed.
        assert not rx.reassembler.has_context(victim)
        assert bufmem.held_by(victim) == 0 and bufmem.used_cells == 2
        # Its reassembly timer went with it.
        assert nic.reassembly_timers.deadline_of(VcAddress(0, 100)) is None

    def test_quota_never_exceeded_under_sweep(self, sim):
        nic = make_receiver(sim, reassembly_quota=3)
        nic.start()

        def feed():
            for vci in range(100, 110):
                nic.rx_input.receive_cell(mid_cell(vci))
                yield sim.timeout(1e-5)

        sim.process(feed())
        sim.run(until=1e-3)
        assert nic.rx_engine.reassembler.active_contexts() <= 3
        assert (
            nic.rx_engine.reassembler.stats.failure_count(ReassemblyFailure.QUOTA)
            == 7
        )

"""The receive pipeline: FIFO -> classify -> reassemble -> DMA -> host.

The costlier direction, and the paper's bottleneck.  Per arriving cell
the engine must: pop the FIFO, parse the header, find the reassembly
context (CAM handshake or software probe), update per-VC state, and
steer the payload into adaptor buffer memory.  First cells additionally
open a context and claim a buffer; last cells run the trailer check and
the completion path (descriptor, DMA to a host buffer, interrupt).

Loss behaviour is faithful to the hardware:

- a full receive FIFO **drops cells** (the network does not wait);
- a cell for an unopened VC is counted and discarded;
- adaptor buffer exhaustion drops the cell (the PDU then fails its
  CRC/length check -- same as network loss);
- host buffer-pool exhaustion drops the completed PDU.

Graceful degradation under overload (:class:`FrameDiscardPolicy`): a
cell lost at the interface ruins its whole frame anyway, so spending
FIFO slots and engine cycles on the frame's remaining cells only
steals capacity from frames that could still be delivered intact.
**Early Packet Discard** refuses whole frames at admission once the
FIFO or buffer memory crosses a pressure threshold; **Partial Packet
Discard** stops admitting a frame the moment one of its cells is
dropped, letting only the EOF through so the reassembler still sees
the frame boundary.  Every discarded cell lands in an itemised
counter, which is what lets :mod:`repro.faults.audit` prove cell
conservation end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.aal.interface import ReassemblyFailure, SduIndication
from repro.atm.addressing import VcAddress
from repro.atm.cell import PAYLOAD_SIZE, AtmCell
from repro.atm.vc import VcTable
from repro.host.dma import DmaEngine
from repro.host.memory import BufferPool
from repro.nic.bufmem import AdaptorBufferMemory
from repro.nic.cam import Cam
from repro.nic.costs import CellPosition, RxCostModel
from repro.nic.descriptors import RxCompletion
from repro.nic.engine import EngineClock
from repro.nic.fifo import CellFifo
from repro.nic.sarglue import Aal5Glue, SarGlue
from repro.sim.core import URGENT, Call, Simulator
from repro.sim.monitor import Counter, ThroughputMeter, WelfordStat

@dataclass(frozen=True)
class FrameDiscardPolicy:
    """EPD/PPD configuration for the receive path.

    *epd*: refuse whole frames at their first cell once the FIFO fill
    fraction reaches *fifo_threshold* or buffer-memory free space falls
    below *bufmem_reserve_cells*.  *ppd*: once a frame loses a cell at
    the interface (FIFO overflow or buffer exhaustion), drop its
    remaining cells at admission, passing only the EOF through so the
    reassembler still delineates frames.
    """

    epd: bool = True
    ppd: bool = True
    #: FIFO fill fraction at which EPD engages (0.5 = half full).
    fifo_threshold: float = 0.5
    #: EPD also engages when free buffer memory drops below this.
    bufmem_reserve_cells: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fifo_threshold <= 1.0:
            raise ValueError("fifo_threshold must be in (0, 1]")
        if self.bufmem_reserve_cells < 0:
            raise ValueError("bufmem_reserve_cells must be >= 0")


class RxEngine:
    """The programmable reassembly engine."""

    def __init__(
        self,
        sim: Simulator,
        clock: EngineClock,
        costs: RxCostModel,
        fifo: CellFifo,
        vc_table: VcTable,
        dma: DmaEngine,
        bufmem: AdaptorBufferMemory,
        buffer_pool: BufferPool,
        cam: Optional[Cam] = None,
        glue: Optional[SarGlue] = None,
        discard: Optional[FrameDiscardPolicy] = None,
        context_quota: Optional[int] = None,
        name: str = "rx",
    ) -> None:
        self.sim = sim
        self.clock = clock
        self.costs = costs
        self.fifo = fifo
        self.vc_table = vc_table
        self.dma = dma
        self.bufmem = bufmem
        self.buffer_pool = buffer_pool
        self.cam = cam
        self.glue = glue if glue is not None else Aal5Glue()
        self.discard = discard
        self.name = name
        self.reassembler = self.glue.make_reassembler()
        if context_quota is not None:
            if not hasattr(self.reassembler, "max_contexts"):
                raise ValueError(
                    f"{type(self.reassembler).__name__} does not support "
                    "a reassembly-context quota"
                )
            self.reassembler.max_contexts = context_quota
            self.reassembler.on_evict = self._quota_evicted
        #: Whether *vc* has a PDU mid-reassembly: one frame per check,
        #: the same for AAL5 and AAL3/4 (whose data path runs MID 0).
        self._has_context = self.reassembler.has_context
        # Admission-side frame state for EPD/PPD, kept only under a
        # policy: which VCs are mid-frame (some cells of the current
        # frame admitted) and which are being frame-discarded ('epd' =
        # nothing admitted, kill the EOF too; 'ppd' = partially
        # admitted, pass the EOF for delineation).
        self._mid_frame: Set[VcAddress] = set()
        self._discarding: Dict[VcAddress, str] = {}
        #: Called with each RxCompletion once the PDU sits in host memory.
        self.on_completion: Optional[Callable[[RxCompletion], None]] = None
        #: Called with the VC address whenever a partial PDU makes
        #: progress; the owner uses it to (re)arm reassembly timers.
        self.on_context_activity: Optional[Callable[[VcAddress], None]] = None
        #: Called with the VC address when the quota evicts its context;
        #: the owner uses it to disarm the reassembly timer.
        self.on_context_evicted: Optional[Callable[[VcAddress], None]] = None
        #: Called with each management (OAM) cell; the owner implements
        #: the loopback function.
        self.on_oam: Optional[Callable[[AtmCell], None]] = None
        #: Called with each admitted user cell right after SAR charging,
        #: before reassembly.  ABR destinations (repro.tm.abr) watch the
        #: EFCI bit here to fold congestion into returned RM cells.
        self.on_user_cell: Optional[Callable[[AtmCell], None]] = None
        self.cells_received = Counter(f"{name}.cells")
        self.oam_cells = Counter(f"{name}.oam-cells")
        self.cells_unknown_vc = Counter(f"{name}.unknown-vc")
        self.cells_no_buffer = Counter(f"{name}.no-adaptor-buffer")
        self.cells_hec_discarded = Counter(f"{name}.hec-discard")
        self.cells_epd_discarded = Counter(f"{name}.epd-discard")
        self.cells_ppd_discarded = Counter(f"{name}.ppd-discard")
        self.frames_discarded_early = Counter(f"{name}.epd-frames")
        self.frames_truncated = Counter(f"{name}.ppd-frames")
        self.pdus_delivered = Counter(f"{name}.pdus")
        self.cells_delivered_to_host = Counter(f"{name}.cells-to-host")
        self.pdus_no_host_buffer = Counter(f"{name}.no-host-buffer")
        self.cells_no_host_buffer = Counter(f"{name}.no-host-buffer-cells")
        self.throughput = ThroughputMeter(sim)
        #: Last-cell arrival to host-memory delivery, per PDU.
        self.completion_latency = WelfordStat()
        #: Observability hooks (repro.obs), copied from the simulator:
        #: a TraceRecorder and a CycleProfiler, or None.  Duck-typed --
        #: the NIC package never imports the obs package.
        self.trace = sim.trace
        self.profiler = sim.profiler
        if hasattr(self.reassembler, "on_discard"):
            self.reassembler.on_discard = self._reassembly_discarded
        self._started = False

    def _reassembly_discarded(self, vc, why, cells: int) -> None:
        """Reassembler gave up on a PDU: trace the drop with its cause."""
        if self.trace is not None:
            self.trace.emit(
                "pdu.drop",
                actor=self.name,
                vc=vc,
                reason=why.value,
                cells=cells,
            )

    # -- link side -------------------------------------------------------------

    def _epd_pressure(self) -> bool:
        """Admission pressure check: engage EPD before the hard overflow."""
        policy = self.discard
        if not policy.epd:
            return False
        if self.fifo.fill_fraction >= policy.fifo_threshold:
            return True
        return policy.bufmem_reserve_cells > 0 and self.bufmem.under_pressure(
            policy.bufmem_reserve_cells
        )

    def receive_cell(self, cell: AtmCell) -> None:
        """Cell sink for the incoming link; full FIFO drops the cell.

        This is the hardware admission point, so the EPD/PPD frame
        filter lives here: it costs no engine cycles, exactly like the
        comparator logic in front of a real receive FIFO.  Delineation
        state tracks *admitted* cells only -- a frame whose EOF
        overflowed stays open in the reassembler and merges with its
        successor, which is AAL5's documented failure mode and not
        something admission logic can repair.
        """
        if cell.meta.get("hec_error"):
            # The framer's HEC check rejects the cell before the FIFO;
            # an uncorrectable header is never worth a FIFO slot.
            self.cells_hec_discarded.increment()
            if self.trace is not None:
                self.trace.emit(
                    "cell.drop", actor=self.name, cell=cell, reason="hec"
                )
            return
        if not cell.is_user_cell or self.discard is None:
            # Management cells bypass the frame filter (they carry no
            # frame structure), as does every cell when no policy is
            # configured; a full FIFO still drops them.
            self.fifo.try_put(cell)
            return
        vc = cell.vc
        eof = self.glue.is_eof(cell)
        mode = self._discarding.get(vc)
        if mode is not None:
            if not eof:
                counter = (
                    self.cells_epd_discarded
                    if mode == "epd"
                    else self.cells_ppd_discarded
                )
                counter.increment()
                if self.trace is not None:
                    self.trace.emit(
                        "cell.drop", actor=self.name, cell=cell, reason=mode
                    )
                return
            del self._discarding[vc]
            self._mid_frame.discard(vc)
            if mode == "epd":
                # Nothing of this frame was admitted: killing the EOF
                # too leaves the reassembler perfectly unaware of it.
                self.cells_epd_discarded.increment()
                if self.trace is not None:
                    self.trace.emit(
                        "cell.drop", actor=self.name, cell=cell, reason="epd"
                    )
                return
            # PPD: admit the EOF so the (truncated) frame delineates.
            if not self.fifo.try_put(cell):
                pass  # overflow counted by the FIFO; frames may merge
            return

        first = vc not in self._mid_frame
        if first and self._epd_pressure():
            self.frames_discarded_early.increment()
            self.cells_epd_discarded.increment()
            if self.trace is not None:
                self.trace.emit("rx.frame.epd", actor=self.name, vc=vc)
                self.trace.emit(
                    "cell.drop", actor=self.name, cell=cell, reason="epd"
                )
            if not eof:
                self._discarding[vc] = "epd"
            return

        if self.fifo.try_put(cell):
            if eof:
                self._mid_frame.discard(vc)
            else:
                self._mid_frame.add(vc)
            return

        # Hard overflow (counted by the FIFO).  With PPD, convert the
        # now-doomed frame's remaining cells into admission discards.
        if eof:
            self._mid_frame.discard(vc)
        elif self.discard.ppd:
            self.frames_truncated.increment()
            if self.trace is not None:
                self.trace.emit("rx.frame.truncated", actor=self.name, vc=vc)
            # A holed first cell means nothing was admitted: the whole
            # frame (EOF included) can vanish cleanly, as in EPD.
            self._discarding[vc] = "epd" if first else "ppd"

    # -- engine loop -------------------------------------------------------------

    def start(self) -> None:
        """Launch the firmware loop (idempotent).

        Its first pull runs at the current instant, ahead of ordinary
        entries queued for it.
        """
        if not self._started:
            self._started = True
            self.sim._schedule(0.0, Call(self.fifo.pull, (self._take,)), URGENT)

    def _take(self, cell: AtmCell) -> None:
        """Serve one cell off the FIFO: classify it and charge the work.

        The FIFO calls this with the next cell -- from the previous
        cell's completion, or from the link's delivery when the engine
        was waiting on an empty FIFO.  The step after the charge pulls
        the next cell.
        """
        costs = self.costs
        self.cells_received.count += 1

        # Management cells peel off before classification: the OAM
        # unit (hardware-assisted) handles them so the host never
        # sees a cell.
        if not cell.is_user_cell:
            ops, cycles = costs.oam_charge()
            if self.profiler is not None:
                self.profiler.record_oam(ops)
            self.clock.work(cycles, "rx-oam", self._oam_done, cell)
            return

        # Classification: CAM handshake (or software probe) resolves
        # the VC.  A miss is a cell for a connection we never opened.
        # The CAM's charge ignores the table size, so only the software
        # probe reads it.
        vc = cell.vc
        cam = self.cam
        if cam is not None:
            table_size = 0
            known = cam.lookup(vc) is not None
        else:
            table_size = len(self.vc_table)
            known = self.vc_table.lookup(vc) is not None
        if not known:
            ops, cycles = costs.classify_charge(cam is not None, table_size)
            if self.profiler is not None:
                self.profiler.record_ops("rx", ops)
            self.clock.work(cycles, "rx-unknown-vc", self._unknown_done, cell)
            return

        # Position from the context table and the EOF mark, known before
        # the payload is touched: no open context means a first (or
        # only) cell.
        open_context = self._has_context(vc)
        if self.glue.is_eof(cell):
            position = CellPosition.LAST if open_context else CellPosition.ONLY
        else:
            position = CellPosition.MIDDLE if open_context else CellPosition.FIRST
        ops, cycles = costs.cell_charge(position, cam is not None, table_size)
        extra = self.glue.rx_extra_cycles
        if self.profiler is not None:
            self.profiler.record_cell("rx", position, ops, extra=extra)
        self.clock.work(
            cycles + extra, "rx-cell", self._cell_done, vc, cell, position
        )

    def _oam_done(self, cell: AtmCell) -> None:
        self.oam_cells.increment()
        if self.trace is not None:
            self.trace.emit("rx.cell.oam", actor=self.name, cell=cell)
        if self.on_oam is not None:
            self.on_oam(cell)
        self.fifo.pull(self._take)

    def _unknown_done(self, cell: AtmCell) -> None:
        self.cells_unknown_vc.increment()
        if self.trace is not None:
            self.trace.emit(
                "cell.drop",
                actor=self.name,
                cell=cell,
                reason="unknown_vc",
            )
        self.fifo.pull(self._take)

    def _cell_done(
        self, vc: VcAddress, cell: AtmCell, position: CellPosition
    ) -> None:
        self._absorb(vc, cell, position)
        self.fifo.pull(self._take)

    def _absorb(
        self, vc: VcAddress, cell: AtmCell, position: CellPosition
    ) -> None:
        """Post-charge work on a user cell: buffer it and reassemble."""
        if self.trace is not None:
            self.trace.emit(
                "rx.cell.sar",
                actor=self.name,
                cell=cell,
                position=position.value,
            )
        if self.on_user_cell is not None:
            self.on_user_cell(cell)

        # Payload into adaptor buffer memory; exhaustion loses the
        # cell exactly like network loss would.
        if not self.bufmem.grow(("rx", vc), 1):
            self.cells_no_buffer.increment()
            if self.trace is not None:
                self.trace.emit(
                    "cell.drop",
                    actor=self.name,
                    cell=cell,
                    reason="no_adaptor_buffer",
                )
            # The frame is now holed; with PPD, stop admitting its
            # remaining cells (only while the frame is still open at
            # admission -- its EOF may already have been accepted).
            if (
                self.discard is not None
                and self.discard.ppd
                and not self.glue.is_eof(cell)
                and vc in self._mid_frame
                and vc not in self._discarding
            ):
                self.frames_truncated.increment()
                self._discarding[vc] = "ppd"
            return
        self.bufmem.record_write(PAYLOAD_SIZE)

        indication = self.reassembler.receive_cell(cell, now=self.sim._now)
        if indication is None:
            # Did the context survive reassembly?
            if self._has_context(vc):
                if self.on_context_activity is not None:
                    self.on_context_activity(vc)
            else:
                # The reassembler closed the context with a failure
                # verdict (CRC/length/oversize): reclaim the buffer.
                self.bufmem.release(("rx", vc))
            return
        self._complete(vc, cell, indication)

    def _complete(
        self, vc: VcAddress, last_cell: AtmCell, indication: SduIndication
    ) -> None:
        """Last-cell epilogue: claim a host buffer and post the DMA.

        The engine only *posts* the transfer (those cycles are in the
        last-cell budget) -- the DMA machine moves the bytes while the
        engine turns to the next arriving cell.  Stalling the engine for
        the whole PDU DMA would leave the receive FIFO uncovered for
        tens of cell slots per completion, which is exactly the overrun
        the architecture's separate DMA hardware exists to prevent.
        """
        arrived = self.sim.now
        self.bufmem.record_read(indication.size)
        self.bufmem.release(("rx", vc))
        if self.trace is not None:
            self.trace.emit(
                "rx.pdu.done",
                actor=self.name,
                cell=last_cell,
                cells=indication.cells,
                size=indication.size,
            )
        host_buffer = self.buffer_pool.allocate(owner=str(vc))
        if host_buffer is None or host_buffer.capacity < indication.size:
            if host_buffer is not None:
                self.buffer_pool.release(host_buffer)
            self.pdus_no_host_buffer.increment()
            self.cells_no_host_buffer.increment(indication.cells)
            if self.trace is not None:
                self.trace.emit(
                    "pdu.drop",
                    actor=self.name,
                    cell=last_cell,
                    reason="no_host_buffer",
                    cells=indication.cells,
                )
            return
        # The DMA engine serves one transfer at a time, so back-to-back
        # completions transfer strictly in order.
        self.dma.transfer_then(
            indication.size,
            self._deliver_to_host,
            vc,
            last_cell,
            indication,
            host_buffer,
            arrived,
        )

    def _deliver_to_host(
        self,
        vc: VcAddress,
        last_cell: AtmCell,
        indication: SduIndication,
        host_buffer,
        arrived: float,
    ) -> None:
        host_buffer.write(indication.sdu)

        completion = RxCompletion(
            vc=vc,
            sdu=indication.sdu,
            buffer=host_buffer,
            received_at=arrived,
            delivered_at=self.sim.now,
            cells=indication.cells,
            user_indication=indication.user_indication,
            posted_at=last_cell.meta.get("posted_at"),
        )
        self.pdus_delivered.increment()
        self.cells_delivered_to_host.increment(indication.cells)
        self.throughput.account(indication.size)
        self.completion_latency.add(self.sim.now - arrived)
        if self.on_completion is not None:
            self.on_completion(completion)

    # -- hygiene ---------------------------------------------------------------

    def _quota_evicted(self, vc: VcAddress) -> None:
        """Reassembler quota evicted *vc*: reclaim its buffer and timer."""
        self.bufmem.release(("rx", vc))
        if self.trace is not None:
            self.trace.emit("rx.context.evicted", actor=self.name, vc=vc)
        if self.on_context_evicted is not None:
            self.on_context_evicted(vc)

    def expire_context(self, vc: VcAddress) -> bool:
        """Reassembly-timeout hook: abort a stale partial PDU."""
        aborted = self.glue.abort_context(
            self.reassembler, vc, ReassemblyFailure.TIMEOUT
        )
        if aborted:
            self.bufmem.release(("rx", vc))
        return aborted

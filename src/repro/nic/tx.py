"""The transmit pipeline: descriptor fetch -> DMA -> segmentation -> FIFO.

The engine's firmware loop, as the paper's analysis budgets it:

1. take the next TX descriptor from the host ring;
2. fetch the VC's header template, program the DMA, and pull the PDU
   from host memory into adaptor buffer memory;
3. walk the PDU one cell at a time -- build the header, advance the
   read pointer, offer the cell to the transmit FIFO (stalling when the
   FIFO is full, i.e. when the engine outruns the link);
4. on the final cell, build pad + trailer; then write completion status
   back to the host ring.

Each step is a callback: it books its charge with ``clock.work(charge,
next_step)`` and the clock calls the next step when the engine has
done the work.  The PDU in service is a small state on the engine --
descriptor, its VC's state, cells, next index and pacing interval.
Each VC's state (its segmenting call, static pacing interval and next
pacing slot) is resolved on the VC's first PDU and dropped when the VC
closes, so the per-PDU steps do no per-connection lookup.

The framer (pure hardware in the real adaptor; here one callback)
drains the FIFO one cell per link slot.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.atm.addressing import VcAddress
from repro.atm.cell import PAYLOAD_SIZE, AtmCell
from repro.atm.link import PhysicalLink
from repro.atm.vc import VcTable
from repro.host.dma import DmaEngine
from repro.nic.bufmem import AdaptorBufferMemory
from repro.nic.costs import CellPosition, TxCostModel
from repro.nic.descriptors import DescriptorRing, TxDescriptor
from repro.nic.engine import EngineClock
from repro.nic.fifo import CellFifo
from repro.nic.sarglue import Aal5Glue, SarGlue
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, ThroughputMeter


class _VcState:
    """One VC's transmit state: its segmenting call
    ``segment(sdu, uu, meta=...)``, the seconds between cells of its
    peak-rate contract (None: unpaced) and the earliest time its next
    paced cell may go."""

    __slots__ = ("segment", "interval", "next_slot")

    def __init__(self, segment: Callable, interval: Optional[float]) -> None:
        self.segment = segment
        self.interval = interval
        self.next_slot = 0.0


class TxEngine:
    """The programmable segmentation engine."""

    def __init__(
        self,
        sim: Simulator,
        clock: EngineClock,
        costs: TxCostModel,
        ring: DescriptorRing,
        dma: DmaEngine,
        fifo: CellFifo,
        bufmem: AdaptorBufferMemory,
        vc_table: VcTable,
        glue: Optional[SarGlue] = None,
        name: str = "tx",
    ) -> None:
        self.sim = sim
        self.clock = clock
        self.costs = costs
        self.ring = ring
        self.dma = dma
        self.fifo = fifo
        self.bufmem = bufmem
        #: The open VCs and their contracts.  A VC opened with a peak
        #: rate has its cells spaced to it, so the network's GCRA policer
        #: sees conforming traffic (see repro.atm.policing).
        self.vc_table = vc_table
        self.glue = glue if glue is not None else Aal5Glue()
        #: Closed-loop rate control hook (repro.tm.abr): an AbrAgent, or
        #: None.  When set, VCs registered with the agent pace at their
        #: dynamic allowed cell rate instead of the static contract, and
        #: the engine interleaves the agent's forward RM cells into the
        #: stream.  Duck-typed -- the NIC package never imports repro.tm.
        self.abr = None
        self.name = name
        # The charges, read once: the budget is frozen.  Each cell's
        # carries the AAL glue's extra cycles as one more op.
        self._prologue_charge = costs.pdu_step_charge("tx-pdu-prologue")
        self._dma_setup_charge = costs.pdu_step_charge("tx-dma-setup")
        self._completion_charge = costs.pdu_step_charge("tx-pdu-completion")
        self._cell_charges = {
            position: costs.cell_charge(position).with_op(
                "sar_glue_extra", self.glue.tx_extra_cycles
            )
            for position in CellPosition
        }
        #: Each open VC's state, from its first PDU until it closes.
        self._vcs: Dict[VcAddress, _VcState] = {}
        #: Called with the descriptor when its status writeback completes.
        self.on_pdu_sent: Optional[Callable[[TxDescriptor], None]] = None
        self.pdus_sent = Counter(f"{name}.pdus")
        self.cells_sent = Counter(f"{name}.cells")
        self.pacing_stalls = Counter(f"{name}.pacing-stalls")
        self.pdus_stalled_for_buffer = Counter(f"{name}.buffer-stalls")
        self.throughput = ThroughputMeter(sim)
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.  Duck-typed -- the NIC package never
        #: imports the obs package.
        self.trace = sim.trace
        self._started = False
        # The PDU in service: its descriptor, when the engine took it,
        # its VC's state, its cells, the next cell's index and the
        # pacing interval.
        self._descriptor: Optional[TxDescriptor] = None
        self._pdu_started = 0.0
        self._vc: Optional[_VcState] = None
        self._cells: List[AtmCell] = []
        self._index = 0
        self._interval: Optional[float] = None

    def start(self) -> None:
        """Launch the firmware loop (idempotent).

        The loop's first step runs at the current instant, ahead of
        ordinary entries queued for it.
        """
        if not self._started:
            self._started = True
            self.sim._call_urgent(self._take_descriptor)

    def _resolve(self, vc: VcAddress) -> _VcState:
        """*vc*'s state, built on its first PDU and kept while it is open.

        A PDU whose VC closed while it waited in the ring gets a state
        of its own, unpaced and kept nowhere.
        """
        connection = self.vc_table.lookup(vc)
        peak_bps = None if connection is None else connection.peak_rate_bps
        state = _VcState(
            self.glue.segmenter_for(vc),
            (53 * 8) / peak_bps if peak_bps else None,
        )
        if connection is not None:
            self._vcs[vc] = state
        return state

    def drop_vc(self, vc: VcAddress) -> None:
        """Forget *vc*'s state: the VC closed.

        A PDU of the VC that the engine took before the close but has
        not begun to send goes unpaced, like one still in the ring.
        """
        state = self._vcs.pop(vc, None)
        if state is not None:
            state.interval = None

    # -- the firmware loop, one callback per step --------------------------

    def _take_descriptor(self) -> None:
        self.ring.pull(self._prologue)

    def _prologue(self, descriptor: TxDescriptor) -> None:
        self._descriptor = descriptor
        self._pdu_started = self.sim._now
        if self.trace is not None:
            self.trace.emit(
                "tx.pdu.posted",
                actor=self.name,
                pdu_id=descriptor.pdu_id,
                vc=descriptor.vc,
                size=descriptor.size,
            )
        # Per-PDU prologue: parse the descriptor, load the VC's state
        # (its header template) and cut the PDU into cells, each stamped
        # with the PDU's id and posting time, program the host-memory DMA.
        vc = descriptor.vc
        state = self._vc = self._vcs.get(vc) or self._resolve(vc)
        self._cells = state.segment(
            descriptor.sdu,
            descriptor.user_indication,
            meta={"pdu_id": descriptor.pdu_id, "posted_at": descriptor.posted_at},
        )
        self.clock.work(self._prologue_charge, self._dma_setup)

    def _dma_setup(self) -> None:
        self.clock.work(self._dma_setup_charge, self._stage)

    def _stage(self) -> None:
        """Stage the PDU into adaptor buffer memory, then DMA it in.

        If memory is short, retry after the FIFO makes progress -- a
        stall, never a loss, on transmit.
        """
        descriptor = self._descriptor
        if not self.bufmem.allocate(("tx", descriptor.pdu_id), len(self._cells)):
            self.pdus_stalled_for_buffer.count += 1
            if self.trace is not None:
                self.trace.emit(
                    "tx.pdu.bufstall",
                    actor=self.name,
                    pdu_id=descriptor.pdu_id,
                    vc=descriptor.vc,
                )
            self.sim.schedule_call(self.fifo.depth_cells * 1e-7, self._stage)
            return
        self.dma.transfer_then(len(descriptor.sdu), self._segment)

    def _segment(self) -> None:
        """The PDU is in buffer memory: walk its cells.

        ABR VCs pace at the agent's current allowed cell rate, which
        moves between MCR and PCR as RM feedback arrives; other VCs at
        the static interval of their peak-rate contract.
        """
        descriptor = self._descriptor
        self.bufmem.bytes_written += len(descriptor.sdu)
        if self.trace is not None:
            self.trace.emit(
                "tx.pdu.staged",
                actor=self.name,
                pdu_id=descriptor.pdu_id,
                vc=descriptor.vc,
                cells=len(self._cells),
            )
        self._index = 0
        interval = self._vc.interval
        if self.abr is not None:
            dynamic = self.abr.interval_of(descriptor.vc)
            if dynamic is not None:
                interval = dynamic
        self._interval = interval
        self._charge_cell()

    def _charge_cell(self) -> None:
        """Segmentation: one charge per cell, then pace (if the VC is
        paced) and offer it."""
        index = self._index
        total = len(self._cells)
        if index == total:
            self._completion()
            return
        # CellPosition.of, without its frame or its argument checks.
        if 0 < index < total - 1:
            position = CellPosition.MIDDLE
        elif total == 1:
            position = CellPosition.ONLY
        elif index == 0:
            position = CellPosition.FIRST
        else:
            position = CellPosition.LAST
        self.clock.work(
            self._cell_charges[position],
            self._emit if self._interval is None else self._pace,
        )

    def _pace(self) -> None:
        # Shape to the VC's peak cell rate.  A single-engine firmware
        # loop stalls on the pacer, so one heavily shaped VC delays
        # others behind it in the ring -- faithful to the era's in-order
        # designs.
        descriptor = self._descriptor
        if self.abr is not None:
            # ABR rates move mid-PDU as RM feedback returns; re-read so
            # each cell paces at the current ACR.
            dynamic = self.abr.interval_of(descriptor.vc)
            if dynamic is not None:
                self._interval = dynamic
        slot = self._vc.next_slot
        now = self.sim._now
        if now < slot:
            self.pacing_stalls.count += 1
            if self.trace is not None:
                self.trace.emit(
                    "tx.cell.paced",
                    actor=self.name,
                    pdu_id=descriptor.pdu_id,
                    vc=descriptor.vc,
                    delay=slot - now,
                )
            self.sim.schedule_call(slot - now, self._paced, slot)
            return
        self._paced(slot)

    def _paced(self, slot: float) -> None:
        self._vc.next_slot = max(self.sim._now, slot) + self._interval
        self._emit()

    def _emit(self) -> None:
        cell = self._cells[self._index]
        self.bufmem.bytes_read += PAYLOAD_SIZE
        if self.trace is not None:
            self.trace.tag_cell(cell)
            self.trace.emit(
                "tx.cell.sar",
                actor=self.name,
                cell=cell,
                position=CellPosition.of(self._index, len(self._cells)).value,
            )
        if self.fifo.offer(cell, self._sent):
            self._sent()

    def _sent(self) -> None:
        self.cells_sent.count += 1
        if self.abr is not None:
            # Every Nrm-th data cell is chased by a forward RM cell
            # carrying the source's CCR; the agent builds it (or returns
            # None between probes).  RM cells ride the same FIFO so they
            # serialize in-order with the data.
            rm_cell = self.abr.data_cell_sent(self._descriptor.vc)
            if rm_cell is not None and not self.fifo.offer(
                rm_cell, self._next_cell
            ):
                return
        self._index += 1
        self._charge_cell()

    def _next_cell(self) -> None:
        """Resume after a stalled RM cell is in: charge the next cell."""
        self._index += 1
        self._charge_cell()

    def _completion(self) -> None:
        """Completion status back to the host."""
        self.clock.work(self._completion_charge, self._pdu_done)

    def _pdu_done(self) -> None:
        descriptor = self._descriptor
        self.bufmem.release(("tx", descriptor.pdu_id))
        self.pdus_sent.count += 1
        self.throughput.bytes_total += len(descriptor.sdu)
        if self.trace is not None:
            self.trace.emit(
                "tx.pdu.done",
                actor=self.name,
                pdu_id=descriptor.pdu_id,
                vc=descriptor.vc,
                cells=len(self._cells),
                service_time=self.sim._now - self._pdu_started,
            )
        if self.on_pdu_sent is not None:
            self.on_pdu_sent(descriptor)
        self._take_descriptor()


class Framer:
    """Link-side drain: one cell from the FIFO onto the wire per slot.

    Hardware in the real interface; here one callback, whose only
    policy is strict FIFO order at link rate: each cell's wire-out pulls
    the next cell from the FIFO, and a framer that found the FIFO empty
    is handed the next cell put in.
    """

    def __init__(
        self,
        sim: Simulator,
        fifo: CellFifo,
        link: Optional[PhysicalLink] = None,
        name: str = "framer",
    ) -> None:
        self.sim = sim
        self.fifo = fifo
        self.link = link
        self.name = name
        self._started = False

    def attach(self, link: PhysicalLink) -> None:
        self.link = link

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.fifo.pull(self._frame)

    def _frame(self, cell: AtmCell) -> None:
        if self.link is None:
            raise RuntimeError(f"{self.name} has no link attached")
        self.link.send(cell, self.fifo.pull, self._frame)

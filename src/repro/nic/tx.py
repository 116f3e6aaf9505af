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

Each step is a callback: it books its cycles with ``clock.work(cycles,
tag, next_step)`` and the clock calls the next step when the engine has
done the work.  The PDU in service is a small state on the engine --
descriptor, cells, next index and pacing interval.

The framer (pure hardware in the real adaptor; here two callbacks)
drains the FIFO one cell per link slot.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.atm.addressing import VcAddress
from repro.atm.cell import PAYLOAD_SIZE, AtmCell
from repro.atm.link import PhysicalLink
from repro.host.dma import DmaEngine
from repro.nic.bufmem import AdaptorBufferMemory
from repro.nic.costs import CellPosition, TxCostModel
from repro.nic.descriptors import DescriptorRing, TxDescriptor
from repro.nic.engine import EngineClock
from repro.nic.fifo import CellFifo
from repro.nic.sarglue import Aal5Glue, SarGlue
from repro.sim.core import URGENT, Call, Simulator
from repro.sim.monitor import Counter, ThroughputMeter, WelfordStat

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
        glue: Optional[SarGlue] = None,
        rate_of: Optional[Callable[[VcAddress], Optional[float]]] = None,
        name: str = "tx",
    ) -> None:
        self.sim = sim
        self.clock = clock
        self.costs = costs
        self.ring = ring
        self.dma = dma
        self.fifo = fifo
        self.bufmem = bufmem
        self.glue = glue if glue is not None else Aal5Glue()
        #: Optional traffic-contract lookup: peak rate in bits/second for
        #: a VC, or None for unpaced.  Paced VCs have their cells spaced
        #: to the contract so the network's GCRA policer sees conforming
        #: traffic (see repro.atm.policing).
        self.rate_of = rate_of
        #: Closed-loop rate control hook (repro.tm.abr): an AbrAgent, or
        #: None.  When set, VCs registered with the agent pace at their
        #: dynamic allowed cell rate instead of the static contract, and
        #: the engine interleaves the agent's forward RM cells into the
        #: stream.  Duck-typed -- the NIC package never imports repro.tm.
        self.abr = None
        self.name = name
        self._segmenters: Dict[VcAddress, object] = {}
        self._next_slot: Dict[VcAddress, float] = {}
        #: Called with the descriptor when its status writeback completes.
        self.on_pdu_sent: Optional[Callable[[TxDescriptor], None]] = None
        self.pdus_sent = Counter(f"{name}.pdus")
        self.cells_sent = Counter(f"{name}.cells")
        self.pacing_stalls = Counter(f"{name}.pacing-stalls")
        self.pdus_stalled_for_buffer = Counter(f"{name}.buffer-stalls")
        self.throughput = ThroughputMeter(sim)
        #: Descriptor-posted to completion-writeback time per PDU.
        self.service_time = WelfordStat()
        #: Observability hooks (repro.obs), copied from the simulator:
        #: a TraceRecorder and a CycleProfiler, or None.  Duck-typed --
        #: the NIC package never imports the obs package.
        self.trace = sim.trace
        self.profiler = sim.profiler
        self._started = False
        # The PDU in service: its descriptor, when the engine took it,
        # its cells, the next cell's index and the pacing interval.
        self._descriptor: Optional[TxDescriptor] = None
        self._pdu_started = 0.0
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
            self.sim._schedule(0.0, Call(self._take_descriptor, ()), URGENT)

    def _pacing_interval(self, vc: VcAddress) -> Optional[float]:
        """Seconds between cells for a rate-contracted VC, else None.

        ABR VCs pace at the agent's current allowed cell rate, which
        moves between MCR and PCR as RM feedback arrives; other VCs fall
        back to the static peak-rate contract.
        """
        if self.abr is not None:
            interval = self.abr.interval_of(vc)
            if interval is not None:
                return interval
        if self.rate_of is None:
            return None
        peak_bps = self.rate_of(vc)
        if peak_bps is None or peak_bps <= 0:
            return None
        return (53 * 8) / peak_bps

    def _segmenter_for(self, vc: VcAddress):
        segmenter = self._segmenters.get(vc)
        if segmenter is None:
            segmenter = self.glue.make_segmenter(vc)
            self._segmenters[vc] = segmenter
        return segmenter

    # -- the firmware loop, one callback per step --------------------------

    def _take_descriptor(self) -> None:
        self.ring.pull(self._prologue)

    def _prologue(self, descriptor: TxDescriptor) -> None:
        self._descriptor = descriptor
        self._pdu_started = self.sim.now
        if self.trace is not None:
            self.trace.emit(
                "tx.pdu.posted",
                actor=self.name,
                pdu_id=descriptor.pdu_id,
                vc=descriptor.vc,
                size=descriptor.size,
            )
        # Per-PDU prologue: parse the descriptor, load the VC header
        # template, program the host-memory DMA.  Each step's ops reach
        # the profiler as they are charged, so a run cut off mid-PDU
        # still reconciles with the engine clock.
        ops, cycles = self.costs.pdu_step_charge("prologue")
        if self.profiler is not None:
            self.profiler.record_pdu("tx", ops)
        self.clock.work(cycles, "tx-pdu-prologue", self._dma_setup)

    def _dma_setup(self) -> None:
        ops, cycles = self.costs.pdu_step_charge("dma_setup")
        if self.profiler is not None:
            self.profiler.record_ops("tx", ops)
        self.clock.work(cycles, "tx-dma-setup", self._stage)

    def _stage(self) -> None:
        """Stage the PDU into adaptor buffer memory, then DMA it in.

        If memory is short, retry after the FIFO makes progress -- a
        stall, never a loss, on transmit.
        """
        descriptor = self._descriptor
        n_cells = self.glue.cells_for(descriptor.size)
        if not self.bufmem.allocate(("tx", descriptor.pdu_id), n_cells):
            self.pdus_stalled_for_buffer.increment()
            if self.trace is not None:
                self.trace.emit(
                    "tx.pdu.bufstall",
                    actor=self.name,
                    pdu_id=descriptor.pdu_id,
                    vc=descriptor.vc,
                )
            self.sim.schedule_call(self.fifo.depth_cells * 1e-7, self._stage)
            return
        self.dma.transfer_then(descriptor.size, self._segment)

    def _segment(self) -> None:
        descriptor = self._descriptor
        self.bufmem.record_write(descriptor.size)
        if self.trace is not None:
            self.trace.emit(
                "tx.pdu.staged",
                actor=self.name,
                pdu_id=descriptor.pdu_id,
                vc=descriptor.vc,
                cells=self.glue.cells_for(descriptor.size),
            )
        # Segment (functionally real cells) and emit.
        self._cells = self.glue.segment(
            self._segmenter_for(descriptor.vc),
            descriptor.sdu,
            descriptor.user_indication,
        )
        self._index = 0
        self._interval = self._pacing_interval(descriptor.vc)
        self._charge_cell()

    def _charge_cell(self) -> None:
        """Segmentation: one charge per cell, then pace (if the VC is
        paced) and offer it."""
        index = self._index
        total = len(self._cells)
        if index == total:
            self._completion()
            return
        if 0 < index < total - 1:
            position = CellPosition.MIDDLE
        else:
            position = CellPosition.of(index, total)
        ops, cycles = self.costs.cell_charge(position)
        extra = self.glue.tx_extra_cycles
        if self.profiler is not None:
            self.profiler.record_cell("tx", position, ops, extra=extra)
        self.clock.work(
            cycles + extra,
            "tx-cell",
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
        slot = self._next_slot.get(descriptor.vc, 0.0)
        now = self.sim.now
        if now < slot:
            self.pacing_stalls.increment()
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
        self._next_slot[self._descriptor.vc] = (
            max(self.sim.now, slot) + self._interval
        )
        self._emit()

    def _emit(self) -> None:
        descriptor = self._descriptor
        cell = self._cells[self._index]
        self.bufmem.record_read(PAYLOAD_SIZE)
        cell.meta["pdu_id"] = descriptor.pdu_id
        cell.meta["posted_at"] = descriptor.posted_at
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
        self._next_cell()

    def _next_cell(self) -> None:
        self._index += 1
        self._charge_cell()

    def _completion(self) -> None:
        """Completion status back to the host."""
        ops, cycles = self.costs.pdu_step_charge("completion")
        if self.profiler is not None:
            self.profiler.record_ops("tx", ops)
        self.clock.work(cycles, "tx-pdu-completion", self._pdu_done)

    def _pdu_done(self) -> None:
        descriptor = self._descriptor
        self.bufmem.release(("tx", descriptor.pdu_id))
        self.pdus_sent.increment()
        self.throughput.account(descriptor.size)
        service_time = self.sim.now - self._pdu_started
        self.service_time.add(service_time)
        if self.trace is not None:
            self.trace.emit(
                "tx.pdu.done",
                actor=self.name,
                pdu_id=descriptor.pdu_id,
                vc=descriptor.vc,
                cells=len(self._cells),
                service_time=service_time,
            )
        if self.on_pdu_sent is not None:
            self.on_pdu_sent(descriptor)
        self._take_descriptor()


class Framer:
    """Link-side drain: one cell from the FIFO onto the wire per slot.

    Hardware in the real interface; here two callbacks, like
    :class:`~repro.atm.mux.OutputPort`, whose only policy is strict FIFO
    order at link rate: each wire-out pulls the next cell, and a framer
    that found the FIFO empty is handed the next cell put in.
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
        self.cells_framed = Counter(f"{name}.cells")
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
        self.link.send(cell, self._wire_out)

    def _wire_out(self) -> None:
        self.cells_framed.count += 1
        self.fifo.pull(self._frame)

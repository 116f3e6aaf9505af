"""The transmit pipeline: descriptor fetch -> DMA -> segmentation -> FIFO.

The engine's firmware loop, as the paper's analysis budgets it:

1. take the next TX descriptor from the host ring;
2. fetch the VC's header template, program the DMA, and pull the PDU
   from host memory into adaptor buffer memory;
3. walk the PDU one cell at a time -- build the header, advance the
   read pointer, push into the transmit FIFO (stalling when the FIFO is
   full, i.e. when the engine outruns the link);
4. on the final cell, build pad + trailer; then write completion status
   back to the host ring.

The framer (a trivial second process, pure hardware in the real
adaptor) drains the FIFO one cell per link slot.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.atm.addressing import VcAddress
from repro.atm.cell import PAYLOAD_SIZE
from repro.atm.link import PhysicalLink
from repro.host.dma import DmaEngine
from repro.nic.bufmem import AdaptorBufferMemory
from repro.nic.costs import CellPosition, TxCostModel
from repro.nic.descriptors import DescriptorRing, TxDescriptor
from repro.nic.engine import EngineClock
from repro.nic.fifo import CellFifo
from repro.nic.sarglue import Aal5Glue, SarGlue
from repro.sim.core import Simulator
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
        #: Observability hooks (repro.obs): a TraceRecorder and a
        #: CycleProfiler, or None.  Duck-typed -- the NIC package never
        #: imports the obs package.
        self.trace = None
        self.profiler = None
        self._process = None

    def start(self) -> None:
        """Launch the firmware loop (idempotent)."""
        if self._process is None:
            self._process = self.sim.process(self._loop())

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

    def _loop(self):
        costs = self.costs
        while True:
            descriptor: TxDescriptor = yield self.ring.take()
            started = self.sim.now
            if self.trace is not None:
                self.trace.emit(
                    "tx.pdu.posted",
                    actor=self.name,
                    pdu_id=descriptor.pdu_id,
                    vc=descriptor.vc,
                    size=descriptor.size,
                )

            # Per-PDU prologue: parse the descriptor, load the VC header
            # template, program the host-memory DMA.
            yield self.clock.work(
                costs.descriptor_fetch + costs.header_template_load,
                tag="tx-pdu-prologue",
            )
            yield self.clock.work(costs.dma_setup, tag="tx-dma-setup")

            # Stage the PDU into adaptor buffer memory.  If memory is
            # short, wait for in-flight PDUs to drain (retry after the
            # FIFO makes progress) -- a stall, never a loss, on transmit.
            staging = ("tx", descriptor.pdu_id)
            n_cells = self.glue.cells_for(descriptor.size)
            while not self.bufmem.allocate(staging, n_cells):
                self.pdus_stalled_for_buffer.increment()
                if self.trace is not None:
                    self.trace.emit(
                        "tx.pdu.bufstall",
                        actor=self.name,
                        pdu_id=descriptor.pdu_id,
                        vc=descriptor.vc,
                    )
                yield self.sim.timeout(self.fifo.depth_cells * 1e-7)
            yield self.dma.transfer(descriptor.size)
            self.bufmem.record_write(descriptor.size)
            if self.trace is not None:
                self.trace.emit(
                    "tx.pdu.staged",
                    actor=self.name,
                    pdu_id=descriptor.pdu_id,
                    vc=descriptor.vc,
                    cells=n_cells,
                )

            # Segment (functionally real cells) and emit.
            segmenter = self._segmenter_for(descriptor.vc)
            cells = self.glue.segment(
                segmenter, descriptor.sdu, descriptor.user_indication
            )
            total = len(cells)
            cell_interval = self._pacing_interval(descriptor.vc)
            yield from self._emit_cells(descriptor, cells, cell_interval)

            # Completion status back to the host.
            yield self.clock.work(
                costs.completion_writeback, tag="tx-pdu-completion"
            )
            self.bufmem.release(staging)
            self.pdus_sent.increment()
            self.throughput.account(descriptor.size)
            self.service_time.add(self.sim.now - started)
            if self.profiler is not None:
                self.profiler.record_pdu("tx", costs.pdu_breakdown())
            if self.trace is not None:
                self.trace.emit(
                    "tx.pdu.done",
                    actor=self.name,
                    pdu_id=descriptor.pdu_id,
                    vc=descriptor.vc,
                    cells=total,
                    service_time=self.sim.now - started,
                )
            if self.on_pdu_sent is not None:
                self.on_pdu_sent(descriptor)

    def _emit_cells(self, descriptor: TxDescriptor, cells, cell_interval):
        """Segmentation: one charge, one FIFO put per cell (paced if set)."""
        costs = self.costs
        total = len(cells)
        for index, cell in enumerate(cells):
            position = CellPosition.of(index, total)
            if self.profiler is not None:
                self.profiler.record_cell(
                    "tx",
                    position,
                    costs.cell_breakdown(position),
                    extra=self.glue.tx_extra_cycles,
                )
            yield self.clock.work(
                costs.cell_cycles(position) + self.glue.tx_extra_cycles,
                tag="tx-cell",
            )
            if cell_interval is not None:
                # Shape to the VC's peak cell rate.  A single-engine
                # firmware loop stalls on the pacer, so one heavily
                # shaped VC delays others behind it in the ring --
                # faithful to the era's in-order designs.
                if self.abr is not None:
                    # ABR rates move mid-PDU as RM feedback returns;
                    # re-read so each cell paces at the current ACR.
                    dynamic = self.abr.interval_of(descriptor.vc)
                    if dynamic is not None:
                        cell_interval = dynamic
                slot = self._next_slot.get(descriptor.vc, 0.0)
                if self.sim.now < slot:
                    self.pacing_stalls.increment()
                    if self.trace is not None:
                        self.trace.emit(
                            "tx.cell.paced",
                            actor=self.name,
                            pdu_id=descriptor.pdu_id,
                            vc=descriptor.vc,
                            delay=slot - self.sim.now,
                        )
                    yield self.sim.timeout(slot - self.sim.now)
                self._next_slot[descriptor.vc] = (
                    max(self.sim.now, slot) + cell_interval
                )
            self.bufmem.record_read(PAYLOAD_SIZE)
            cell.meta["pdu_id"] = descriptor.pdu_id
            cell.meta["posted_at"] = descriptor.posted_at
            if self.trace is not None:
                self.trace.tag_cell(cell)
                self.trace.emit(
                    "tx.cell.sar",
                    actor=self.name,
                    cell=cell,
                    position=position.value,
                )
            yield self.fifo.put(cell)
            self.cells_sent.increment()
            if self.abr is not None:
                # Every Nrm-th data cell is chased by a forward RM cell
                # carrying the source's CCR; the agent builds it (or
                # returns None between probes).  RM cells ride the same
                # FIFO so they serialize in-order with the data.
                rm_cell = self.abr.data_cell_sent(descriptor.vc)
                if rm_cell is not None:
                    yield self.fifo.put(rm_cell)


class Framer:
    """Link-side drain: one cell from the FIFO onto the wire per slot.

    Hardware in the real interface; here a two-line process whose only
    policy is strict FIFO order at link rate.
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
        self._process = None

    def attach(self, link: PhysicalLink) -> None:
        self.link = link

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.process(self._loop())

    def _loop(self):
        while True:
            cell = yield self.fifo.get()
            if self.link is None:
                raise RuntimeError(f"{self.name} has no link attached")
            yield self.link.send(cell)
            self.cells_framed.increment()

"""Baseline (a): host-software SAR over a dumb cell-FIFO adaptor.

The pre-offload world: the adaptor is nothing but link framing plus two
cell FIFOs.  The host CPU does everything per cell --

- **transmit**: build each cell (header, SAR bookkeeping, software
  CRC-32 accumulation) and push it to the adaptor with programmed I/O
  across the system bus;
- **receive**: take an *interrupt per cell*, pull the cell across the
  bus, classify it, and run reassembly + CRC in the kernel.

Every per-cell term here lands on the same CPU that applications need,
which is the quantitative case for the paper's architecture (T3/T5).
The functional work reuses :mod:`repro.aal` byte-for-byte, so baseline
and offloaded interface differ *only* in where cycles are charged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional

from repro.aal.aal5 import Aal5Reassembler, Aal5Segmenter
from repro.aal.interface import SduIndication
from repro.atm.addressing import VcAddress
from repro.atm.cell import CELL_SIZE, AtmCell
from repro.atm.link import LinkSpec, PhysicalLink, STS3C_155
from repro.atm.vc import ServiceClass, VcTable, VirtualConnection
from repro.host.bus import BusSpec, SystemBus, TURBOCHANNEL
from repro.host.cpu import CpuSpec, HostCpu, R3000_25MHZ
from repro.host.interrupts import InterruptController, InterruptSpec
from repro.host.os_model import HostOs, OsCostModel
from repro.nic.descriptors import DescriptorRing, RxCompletion
from repro.nic.fifo import CellFifo
from repro.nic.tx import Framer
from repro.sim.core import Event, Simulator
from repro.sim.monitor import Counter, ThroughputMeter


#: A posted PDU: VC, SDU and CPCS-UU byte.
_Pdu = tuple[VcAddress, bytes, int]


@dataclass(frozen=True)
class HostSarCostModel:
    """Host CPU cycle costs of software segmentation/reassembly."""

    #: Per-cell segmentation bookkeeping (header build, length, pointers).
    tx_cell_overhead: int = 60
    #: Per-cell reassembly bookkeeping (classify, link into PDU).
    rx_cell_overhead: int = 80
    #: Software CRC-32, cycles per byte (table-driven on a 1991 RISC).
    crc_cycles_per_byte: float = 5.2
    #: Driver body of the per-cell receive interrupt (on top of the
    #: controller's entry/exit cycles).
    rx_interrupt_handler: int = 120
    #: Per-PDU trailer/descriptor work on each side.
    tx_pdu_overhead: int = 120
    rx_pdu_overhead: int = 150

    def tx_cell_cycles(self) -> float:
        return self.tx_cell_overhead + self.crc_cycles_per_byte * 48

    def rx_cell_cycles(self) -> float:
        return self.rx_cell_overhead + self.crc_cycles_per_byte * 48


@dataclass(frozen=True)
class HostSarConfig:
    """Configuration of the host-SAR baseline machine."""

    host_cpu: CpuSpec = R3000_25MHZ
    bus: BusSpec = TURBOCHANNEL
    os_costs: OsCostModel = field(default_factory=OsCostModel)
    interrupt: InterruptSpec = field(default_factory=InterruptSpec)
    sar_costs: HostSarCostModel = field(default_factory=HostSarCostModel)
    link: LinkSpec = STS3C_155
    tx_fifo_cells: int = 32
    rx_fifo_cells: int = 32
    tx_queue_pdus: int = 64


class HostSarInterface:
    """A workstation doing SAR in software (public API mirrors the NIC)."""

    def __init__(self, sim: Simulator, config: HostSarConfig, name: str = "hostsar"):
        self.sim = sim
        self.config = config
        self.name = name
        self.cpu = HostCpu(sim, config.host_cpu, name=f"{name}.cpu")
        self.bus = SystemBus(sim, config.bus, name=f"{name}.bus")
        self.interrupts = InterruptController(
            sim, self.cpu, config.interrupt, name=f"{name}.intc"
        )
        self.os = HostOs(self.cpu, config.os_costs)
        self.vc_table = VcTable()
        self.tx_fifo = CellFifo(sim, config.tx_fifo_cells, name=f"{name}.txfifo")
        self.rx_fifo = CellFifo(sim, config.rx_fifo_cells, name=f"{name}.rxfifo")
        self._tx_queue = DescriptorRing(
            sim, config.tx_queue_pdus, name=f"{name}.txqueue"
        )
        self._segmenters: dict[VcAddress, Aal5Segmenter] = {}
        self.reassembler = Aal5Reassembler()
        self.framer = Framer(sim, self.tx_fifo, name=f"{name}.framer")
        self.on_pdu: Optional[Callable[[RxCompletion], None]] = None
        self.pdus_sent = Counter(f"{name}.pdus-tx")
        self.pdus_received = Counter(f"{name}.pdus-rx")
        self.tx_throughput = ThroughputMeter(sim)
        self.rx_throughput = ThroughputMeter(sim)
        #: The PDU the TX loop is segmenting: its cells not yet pushed,
        #: and its SDU size.
        self._tx_cells: Deque[AtmCell] = deque()
        self._tx_bytes = 0
        self._started = False
        # Each step the ring, the FIFOs, the interrupt, the CPU or the bus
        # calls back, and the host steps handed on as continuations,
        # bound once: every PDU and cell hands on these objects.
        self._then_tx_pdu = self._tx_pdu
        self._then_tx_segment = self._tx_segment
        self._then_tx_push = self._tx_push
        self._then_tx_next = self._tx_next
        self._then_enqueue = self._enqueue
        self._then_handle_rx_interrupt = self._handle_rx_interrupt
        self._then_reassemble = self._reassemble
        self._then_deliver = self._deliver
        self._then_transfer_then = self.bus.transfer_then
        self._then_execute_then = self.cpu.execute_then
        self._then_receive_then = self.os.receive_then

    # -- wiring (same shape as HostNetworkInterface) -----------------------

    def attach_tx_link(self, link: PhysicalLink) -> None:
        self.framer.attach(link)

    @property
    def rx_input(self):
        return self

    def open_vc(
        self,
        address: Optional[VcAddress] = None,
        peak_rate_bps: Optional[float] = None,
        service_class: ServiceClass = ServiceClass.DATA,
        name: str = "",
    ) -> VirtualConnection:
        return self.vc_table.open(
            address=address,
            service_class=service_class,
            peak_rate_bps=peak_rate_bps,
            name=name,
        )

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._tx_queue.pull(self._then_tx_pdu)
        self.framer.start()

    # -- transmit ----------------------------------------------------------

    def send(
        self, address: VcAddress, sdu: bytes, user_indication: int = 0
    ) -> Event:
        """Post *sdu*; the event fires once the PDU is queued for SAR."""
        if self.vc_table.lookup(address) is None:
            raise ValueError(f"VC {address} is not open on {self.name}")
        self.start()
        queued = self.sim.event()
        self.os.send_then(
            len(sdu), self._then_enqueue, (address, sdu, user_indication), queued
        )
        return queued

    def _enqueue(self, pdu: _Pdu, queued: Event) -> None:
        if self._tx_queue.offer(pdu, queued.trigger):
            queued.trigger()

    def _tx_pdu(self, pdu: _Pdu) -> None:
        address, sdu, uu = pdu
        segmenter = self._segmenters.get(address)
        if segmenter is None:
            segmenter = Aal5Segmenter(address)
            self._segmenters[address] = segmenter
        self.cpu.execute_then(
            self.config.sar_costs.tx_pdu_overhead, "sar-tx-pdu",
            self._then_tx_segment, segmenter, sdu, uu,
        )

    def _tx_segment(self, segmenter: Aal5Segmenter, sdu: bytes, uu: int) -> None:
        self._tx_cells = deque(segmenter.segment(sdu, uu=uu))
        self._tx_bytes = len(sdu)
        self._tx_cell()

    def _tx_cell(self) -> None:
        # Software segmentation + CRC, then programmed I/O of the whole
        # 53-byte cell across the bus to the adaptor FIFO.
        self.cpu.execute_then(
            self.config.sar_costs.tx_cell_cycles(), "sar-tx-cell",
            self._then_transfer_then, CELL_SIZE, "pio-tx", self._then_tx_push,
        )

    def _tx_push(self) -> None:
        if self.tx_fifo.offer(self._tx_cells.popleft(), self._then_tx_next):
            self._tx_next()

    def _tx_next(self) -> None:
        if self._tx_cells:
            self._tx_cell()
            return
        self.pdus_sent.increment()
        self.tx_throughput.account(self._tx_bytes)
        self._tx_queue.pull(self._then_tx_pdu)

    # -- receive --------------------------------------------------------------

    def receive_cell(self, cell: AtmCell) -> None:
        """Link sink: every cell costs the host an interrupt."""
        if not self.rx_fifo.try_put(cell):
            return
        self.interrupts.raise_interrupt_then(
            self.config.sar_costs.rx_interrupt_handler,
            None,
            self._then_handle_rx_interrupt,
        )

    def _handle_rx_interrupt(self) -> None:
        cell = self.rx_fifo.try_get()
        if cell is None:
            return
        # Pull the cell across the bus, then reassemble in the kernel.
        self.bus.transfer_then(
            CELL_SIZE, "pio-rx",
            self._then_execute_then, self.config.sar_costs.rx_cell_cycles(),
            "sar-rx-cell", self._then_reassemble, cell,
        )

    def _reassemble(self, cell: AtmCell) -> None:
        if self.vc_table.lookup(cell.vc) is None:
            return
        indication = self.reassembler.receive_cell(cell, now=self.sim.now)
        if indication is None:
            return
        self.cpu.execute_then(
            self.config.sar_costs.rx_pdu_overhead, "sar-rx-pdu",
            self._then_receive_then, indication.size, self._then_deliver, cell,
            indication,
        )

    def _deliver(self, cell: AtmCell, indication: SduIndication) -> None:
        self.pdus_received.increment()
        self.rx_throughput.account(indication.size)
        if self.on_pdu is not None:
            completion = RxCompletion(
                vc=cell.vc,
                sdu=indication.sdu,
                buffer=None,
                received_at=indication.completed_at,
                delivered_at=self.sim.now,
                cells=indication.cells,
                user_indication=indication.user_indication,
                posted_at=cell.meta.get("posted_at"),
            )
            self.on_pdu(completion)

    # -- observability ------------------------------------------------------------

    def host_cycles_per_pdu(self) -> float:
        """Mean host CPU cycles burned per PDU moved (tx + rx)."""
        pdus = self.pdus_sent.count + self.pdus_received.count
        return self.cpu.total_cycles / pdus if pdus else 0.0

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

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.aal.aal5 import Aal5Reassembler, Aal5Segmenter
from repro.atm.addressing import VcAddress
from repro.atm.cell import CELL_SIZE, AtmCell
from repro.atm.link import LinkSpec, PhysicalLink, STS3C_155
from repro.atm.vc import ServiceClass, VcTable, VirtualConnection
from repro.host.bus import BusSpec, SystemBus, TURBOCHANNEL
from repro.host.cpu import CpuSpec, HostCpu, R3000_25MHZ
from repro.host.interrupts import InterruptController, InterruptSpec
from repro.host.os_model import HostOs, OsCostModel
from repro.nic.descriptors import RxCompletion
from repro.nic.fifo import CellFifo
from repro.nic.tx import Framer
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, ThroughputMeter
from repro.sim.resources import Store


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
        self._tx_queue = Store(sim, capacity=config.tx_queue_pdus)
        self._segmenters: dict[VcAddress, Aal5Segmenter] = {}
        self.reassembler = Aal5Reassembler()
        self.framer = Framer(sim, self.tx_fifo, name=f"{name}.framer")
        self.on_pdu: Optional[Callable[[RxCompletion], None]] = None
        self.pdus_sent = Counter(f"{name}.pdus-tx")
        self.pdus_received = Counter(f"{name}.pdus-rx")
        self.tx_throughput = ThroughputMeter(sim)
        self.rx_throughput = ThroughputMeter(sim)
        self._started = False

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
        self.sim.process(self._tx_loop())
        self.framer.start()

    # -- transmit ----------------------------------------------------------

    def send(self, address: VcAddress, sdu: bytes, user_indication: int = 0):
        """Process-style send; event fires when the PDU is queued."""
        if self.vc_table.lookup(address) is None:
            raise ValueError(f"VC {address} is not open on {self.name}")
        self.start()
        return self.sim.process(self._send(address, sdu, user_indication))

    post = send

    def _send(self, address: VcAddress, sdu: bytes, user_indication: int):
        yield self.os.send(len(sdu))
        yield self._tx_queue.put((address, sdu, user_indication))

    def _tx_loop(self):
        costs = self.config.sar_costs
        while True:
            address, sdu, uu = yield self._tx_queue.get()
            segmenter = self._segmenters.get(address)
            if segmenter is None:
                segmenter = Aal5Segmenter(address)
                self._segmenters[address] = segmenter
            yield self.cpu.execute(costs.tx_pdu_overhead, tag="sar-tx-pdu")
            cells = segmenter.segment(sdu, uu=uu)
            for cell in cells:
                # Software segmentation + CRC, then programmed I/O of the
                # whole 53-byte cell across the bus to the adaptor FIFO.
                yield self.cpu.execute(costs.tx_cell_cycles(), tag="sar-tx-cell")
                yield self.bus.transfer(CELL_SIZE, master="pio-tx")
                yield self.tx_fifo.put(cell)
            self.pdus_sent.increment()
            self.tx_throughput.account(len(sdu))

    # -- receive --------------------------------------------------------------

    def receive_cell(self, cell: AtmCell) -> None:
        """Link sink: every cell costs the host an interrupt."""
        if not self.rx_fifo.try_put(cell):
            return
        self.interrupts.raise_interrupt(
            self.config.sar_costs.rx_interrupt_handler,
            handler=self._handle_rx_interrupt,
        )

    def _handle_rx_interrupt(self) -> None:
        cell = self.rx_fifo.try_get()
        if cell is None:
            return
        self.sim.process(self._absorb_cell(cell))

    def _absorb_cell(self, cell: AtmCell):
        costs = self.config.sar_costs
        # Pull the cell across the bus, then reassemble in the kernel.
        yield self.bus.transfer(CELL_SIZE, master="pio-rx")
        yield self.cpu.execute(costs.rx_cell_cycles(), tag="sar-rx-cell")
        vc = cell.vc
        if self.vc_table.lookup(vc) is None:
            return
        indication = self.reassembler.receive_cell(cell, now=self.sim.now)
        if indication is None:
            return
        yield self.cpu.execute(costs.rx_pdu_overhead, tag="sar-rx-pdu")
        yield self.os.receive(indication.size)
        self.pdus_received.increment()
        self.rx_throughput.account(indication.size)
        if self.on_pdu is not None:
            completion = RxCompletion(
                vc=vc,
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

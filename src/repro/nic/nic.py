"""The whole interface: host machinery + adaptor pipelines, wired up.

:class:`HostNetworkInterface` is the public face of the reproduction.
A minimal end-to-end use::

    sim = Simulator()
    a = HostNetworkInterface(sim, aurora_oc3(), name="a")
    b = HostNetworkInterface(sim, aurora_oc3(), name="b")
    connect(sim, a, b)

    vc = a.open_vc()
    b.open_vc(address=vc.address)          # receiver must open it too
    b.on_pdu = lambda completion: print(completion.size)

    a.send(vc.address, b"hello ATM world")
    sim.run(until=0.01)

Everything observable (throughput, utilisations, drops, latencies) is
reachable through :meth:`HostNetworkInterface.stats`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.atm.addressing import VcAddress
from repro.atm.errors import LossModel
from repro.atm.oam import (
    AlarmCell,
    ContinuityCell,
    LoopbackCell,
    OamFormatError,
    decode_oam,
)
from repro.atm.cell import PTI_RESOURCE_MGMT
from repro.atm.link import LinkSpec, PhysicalLink
from repro.atm.vc import ServiceClass, VcTable, VirtualConnection
from repro.aal.interface import ReassemblyFailure
from repro.aal.reassembly import ReassemblyTimerWheel
from repro.host.bus import SystemBus
from repro.host.cpu import HostCpu
from repro.host.dma import DmaEngine
from repro.host.interrupts import InterruptController
from repro.host.memory import BufferPool
from repro.host.os_model import HostOs
from repro.nic.bufmem import AdaptorBufferMemory
from repro.nic.cam import Cam
from repro.nic.config import NicConfig
from repro.nic.descriptors import DescriptorRing, RxCompletion, TxDescriptor
from repro.nic.engine import EngineClock
from repro.nic.fifo import CellFifo
from repro.nic.rx import RxEngine
from repro.nic.sarglue import glue_for
from repro.nic.tx import Framer, TxEngine
from repro.sim.core import Event, Simulator


def _unawaited() -> None:
    """The continuation of an injected cell: nothing waits on one."""


@dataclass
class NicStats:
    """A flat snapshot of one interface's counters for experiments."""

    pdus_sent: int
    pdus_received: int
    cells_sent: int
    cells_received: int
    tx_throughput_mbps: float
    rx_throughput_mbps: float
    tx_engine_utilization: float
    rx_engine_utilization: float
    host_cpu_utilization: float
    bus_utilization: float
    rx_fifo_overflows: int
    rx_fifo_peak: int
    cells_unknown_vc: int
    pdus_discarded: int
    host_cycles_total: float
    interrupts_delivered: int
    # graceful-degradation counters (zero unless a FrameDiscardPolicy
    # or reassembly quota is configured)
    cells_epd_discarded: int = 0
    cells_ppd_discarded: int = 0
    frames_discarded_early: int = 0
    frames_truncated: int = 0
    cells_hec_discarded: int = 0
    contexts_quota_evicted: int = 0
    # fault-management plane (zero unless OAM/resilience machinery runs)
    oam_ping_timeouts: int = 0
    oam_ping_retries: int = 0
    oam_cc_received: int = 0
    oam_ais_received: int = 0
    oam_rdi_received: int = 0


class OamPingTimeout(Exception):
    """An F5 loopback probe went unanswered past its retry budget."""


class HostNetworkInterface:
    """One workstation with the paper's ATM adaptor installed."""

    def __init__(self, sim: Simulator, config: NicConfig, name: str = "nic"):
        self.sim = sim
        self.config = config
        self.name = name

        # -- host machinery -------------------------------------------------
        self.cpu = HostCpu(sim, config.host_cpu, name=f"{name}.cpu")
        self.bus = SystemBus(sim, config.bus, name=f"{name}.bus")
        self.tx_dma = DmaEngine(sim, self.bus, config.dma, name=f"{name}.txdma")
        self.rx_dma = DmaEngine(sim, self.bus, config.dma, name=f"{name}.rxdma")
        self.interrupts = InterruptController(
            sim, self.cpu, config.interrupt, name=f"{name}.intc"
        )
        self.os = HostOs(self.cpu, config.os_costs)
        self.rx_buffers = BufferPool(
            config.rx_buffer_slot_size,
            config.rx_buffer_slots,
            name=f"{name}.rxpool",
        )

        # -- adaptor ----------------------------------------------------------
        self.vc_table = VcTable()
        self.buffer_memory = AdaptorBufferMemory(
            sim, config.buffer_memory, name=f"{name}.bufmem"
        )
        self.cam: Optional[Cam] = (
            Cam(
                config.cam_entries,
                name=f"{name}.cam",
                eviction=config.cam_eviction,
            )
            if config.cam_entries is not None
            else None
        )
        if self.cam is not None:
            self.cam.trace = sim.trace
        self.tx_ring = DescriptorRing(
            sim, config.tx_ring_depth, name=f"{name}.txring"
        )
        self.tx_fifo = CellFifo(sim, config.tx_fifo_cells, name=f"{name}.txfifo")
        self.rx_fifo = CellFifo(sim, config.rx_fifo_cells, name=f"{name}.rxfifo")
        self.tx_clock = EngineClock(sim, config.tx_engine, name=f"{name}.txclk")
        self.rx_clock = EngineClock(sim, config.rx_engine, name=f"{name}.rxclk")

        self.sar_glue = glue_for(config.aal)
        self.tx_engine = TxEngine(
            sim,
            self.tx_clock,
            config.tx_costs,
            self.tx_ring,
            self.tx_dma,
            self.tx_fifo,
            self.buffer_memory,
            self.vc_table,
            glue=self.sar_glue,
            name=f"{name}.tx",
        )
        self.framer = Framer(sim, self.tx_fifo, name=f"{name}.framer")
        self.rx_engine = RxEngine(
            sim,
            self.rx_clock,
            config.rx_costs,
            self.rx_fifo,
            self.vc_table,
            self.rx_dma,
            self.buffer_memory,
            self.rx_buffers,
            cam=self.cam,
            glue=self.sar_glue,
            discard=config.frame_discard,
            context_quota=config.reassembly_quota,
            name=f"{name}.rx",
        )
        self.rx_engine.on_completion = self._on_completion
        self.rx_engine.on_oam = self._handle_oam
        self._oam_pending: Dict[int, Tuple[Event, float]] = {}
        self._oam_correlations = itertools.count(1)
        self.oam_reflections = 0
        self.oam_bad_cells = 0
        self.oam_ping_timeouts = 0
        self.oam_ping_retries = 0
        self.oam_cc_received = 0
        self.oam_ais_received = 0
        self.oam_rdi_received = 0
        #: Recovery-plane hooks (duck-typed; a LinkSupervisor installs
        #: these): called with the decoded AlarmCell / ContinuityCell.
        self.on_alarm: Optional[Callable[[AlarmCell], None]] = None
        self.on_cc: Optional[Callable[[ContinuityCell], None]] = None
        #: Traffic-management hook (duck-typed; an AbrAgent installs
        #: this): called with each raw resource-management cell (PTI 6)
        #: before OAM decoding is attempted.
        self.on_rm: Optional[Callable] = None
        self.reassembly_timers = ReassemblyTimerWheel(
            sim,
            timeout=config.reassembly_timeout,
            tick=config.reassembly_tick,
            on_expire=self.rx_engine.expire_context,
            name=f"{name}.timers",
        )
        # Each cell that leaves a context open (re)arms its timer, so a
        # context expires ``reassembly_timeout`` after its latest cell
        # (as the sweep sees it, within one tick) unless it closes first
        # (completion, failed check, quota, teardown), which disarms the
        # timer.
        self.rx_engine.on_context_activity = self.reassembly_timers.touch
        self.rx_engine.on_context_closed = self.reassembly_timers.disarm

        #: User callback: invoked with each RxCompletion after the host
        #: OS receive path has run.
        self.on_pdu: Optional[Callable[[RxCompletion], None]] = None
        #: Observability hook (repro.obs), copied from the simulator
        #: like every subcomponent's: a TraceRecorder, or None.
        self.trace = sim.trace
        self._started = False
        # Each per-PDU step the host calls back, and the OS receive step
        # the interrupt hands on, bound once: every send and every
        # delivery hands on these objects.
        self._then_post_descriptor = self._post_descriptor
        self._then_deliver = self._deliver
        self._then_receive_post_interrupt_then = self.os.receive_post_interrupt_then
        sim.components.append(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Launch the adaptor pipelines (idempotent; send() auto-starts)."""
        if self._started:
            return
        self._started = True
        self.tx_engine.start()
        self.framer.start()
        self.rx_engine.start()
        self.reassembly_timers.start()

    # -- wiring ---------------------------------------------------------------

    def attach_tx_link(self, link: PhysicalLink) -> None:
        """Point the transmit framer at an outbound link."""
        self.framer.attach(link)

    @property
    def rx_input(self):
        """The cell sink to attach as an inbound link's destination."""
        return self.rx_engine

    # -- control path ------------------------------------------------------------

    def open_vc(
        self,
        address: Optional[VcAddress] = None,
        peak_rate_bps: Optional[float] = None,
        service_class: ServiceClass = ServiceClass.DATA,
        name: str = "",
    ) -> VirtualConnection:
        """Open a VC for both directions and program the CAM."""
        vc = self.vc_table.open(
            address=address,
            service_class=service_class,
            peak_rate_bps=peak_rate_bps,
            name=name,
        )
        if self.cam is not None:
            self.cam.install(vc.address, vc)
        return vc

    def close_vc(self, address: VcAddress) -> None:
        """Tear down a VC, reclaiming its transmit state, CAM entry and
        reassembly state."""
        self.vc_table.close(address)
        self.tx_engine.drop_vc(address)
        if self.cam is not None:
            self.cam.remove(address)
        self.rx_engine.expire_context(address)

    # -- data path: host API -------------------------------------------------------

    def send(
        self, address: VcAddress, sdu: bytes, user_indication: int = 0
    ) -> Event:
        """Send *sdu* on *address*; a process may ``yield`` the event.

        ``yield nic.send(vc, data)`` waits for the post; a caller that
        does not wait just calls ``nic.send(vc, data)`` and carries on.
        Runs the OS send path on the host CPU, then posts the descriptor
        (blocking when the TX ring is full).  The returned event fires
        once the descriptor is in the ring -- *not* when the PDU is on
        the wire; completion is the adaptor's business.  Its value is
        the posted :class:`TxDescriptor`.

        Raises :class:`ValueError` for an unopened VC and
        :class:`~repro.aal.interface.AalError` for an SDU or user
        indication the configured AAL cannot carry -- here, before
        anything is posted, not later inside the transmit engine.
        """
        if self.vc_table.lookup(address) is None:
            raise ValueError(f"VC {address} is not open on {self.name}")
        self.sar_glue.check_sdu(len(sdu), user_indication)
        if not self._started:
            self.start()
        posted = Event(self.sim)
        self.os.send_then(
            len(sdu), self._then_post_descriptor, address, sdu, user_indication,
            posted,
        )
        return posted

    def _post_descriptor(
        self, address: VcAddress, sdu: bytes, user_indication: int, posted: Event
    ) -> None:
        descriptor = TxDescriptor(
            vc=address,
            sdu=sdu,
            posted_at=self.sim._now,
            user_indication=user_indication,
        )
        if self.tx_ring.offer(descriptor, posted.trigger, descriptor):
            posted.trigger(descriptor)

    # -- management plane -----------------------------------------------------------

    #: Default loopback-reply deadline: generous against any sane link
    #: (hundreds of cell times at OC-3) yet short enough to reap the
    #: correlation within a single experiment run.
    DEFAULT_OAM_PING_TIMEOUT = 5e-3

    def oam_ping(
        self,
        address: VcAddress,
        timeout: Optional[float] = None,
        retries: int = 0,
    ) -> Event:
        """F5 loopback ping on an open VC; the event's value is the RTT.

        The loopback cell is injected straight into the transmit FIFO
        and reflected by the far interface's OAM unit -- neither host
        CPU is involved, so the RTT measures the adaptor+link path.

        A watchdog reaps the pending correlation if no reply arrives
        within ``timeout`` (default :data:`DEFAULT_OAM_PING_TIMEOUT`):
        up to ``retries`` fresh probes are sent first, then the event
        fails with :class:`OamPingTimeout` and the entry is removed --
        unanswered pings no longer leak.
        """
        if self.vc_table.lookup(address) is None:
            raise ValueError(f"VC {address} is not open on {self.name}")
        if timeout is None:
            timeout = self.DEFAULT_OAM_PING_TIMEOUT
        if timeout <= 0:
            raise ValueError("oam_ping timeout must be positive")
        self.start()
        correlation = next(self._oam_correlations)
        completed = self.sim.event()
        self._oam_pending[correlation] = (completed, self.sim.now)
        probe = LoopbackCell(
            vc=address, correlation=correlation, to_be_looped=True
        ).encode()
        self._inject_cell(probe)
        self.sim.process(
            self._ping_watchdog(address, correlation, timeout, retries)
        )
        return completed

    def _ping_watchdog(
        self, address: VcAddress, correlation: int, timeout: float, retries: int
    ):
        attempts = 0
        while True:
            yield self.sim.timeout(timeout)
            if correlation not in self._oam_pending:
                return  # reply arrived; nothing to reap
            if attempts < retries:
                attempts += 1
                self.oam_ping_retries += 1
                # Re-arm the RTT clock: the retry measures its own trip.
                completed, _ = self._oam_pending[correlation]
                self._oam_pending[correlation] = (completed, self.sim.now)
                probe = LoopbackCell(
                    vc=address, correlation=correlation, to_be_looped=True
                ).encode()
                self._inject_cell(probe)
                continue
            completed, _ = self._oam_pending.pop(correlation)
            self.oam_ping_timeouts += 1
            if self.trace is not None:
                self.trace.emit(
                    "oam.ping.timeout",
                    actor=self.name,
                    vc=address,
                    correlation=correlation,
                    attempts=attempts + 1,
                )
            if not completed.triggered:
                completed.fail(OamPingTimeout(f"{self.name} ping {correlation}"))
            return

    def inject_cell(self, cell) -> None:
        """Queue a pre-built management cell into the transmit FIFO."""
        self.start()
        self._inject_cell(cell)

    def _inject_cell(self, cell) -> None:
        self.tx_fifo.offer(cell, _unawaited)

    def _handle_oam(self, cell) -> None:
        if cell.pti == PTI_RESOURCE_MGMT:
            # RM cells share the management lane but carry rate-control
            # state, not OAM PDUs; hand them to the ABR agent (if any).
            if self.on_rm is not None:
                self.on_rm(cell)
            return
        try:
            pdu = decode_oam(cell)
        except OamFormatError:
            self.oam_bad_cells += 1
            return
        if isinstance(pdu, LoopbackCell):
            if pdu.to_be_looped:
                self.oam_reflections += 1
                self._inject_cell(pdu.reflection().encode())
                return
            pending = self._oam_pending.pop(pdu.correlation, None)
            if pending is not None:
                completed, sent_at = pending
                completed.trigger(self.sim.now - sent_at)
        elif isinstance(pdu, ContinuityCell):
            self.oam_cc_received += 1
            if self.on_cc is not None:
                self.on_cc(pdu)
        elif isinstance(pdu, AlarmCell):
            if pdu.kind == "ais":
                self.oam_ais_received += 1
            else:
                self.oam_rdi_received += 1
            if self.on_alarm is not None:
                self.on_alarm(pdu)

    # -- data path: receive plumbing ---------------------------------------------------

    def _on_completion(self, completion: RxCompletion) -> None:
        # Interrupt: entry/exit plus the driver's completion handling;
        # once handled, the OS receive path (copy to user, wakeup,
        # syscall return) without the driver portion.
        self.interrupts.raise_interrupt_then(
            self.config.os_costs.driver_rx_cycles, None,
            self._then_receive_post_interrupt_then, completion.size,
            self._then_deliver, completion,
        )

    def _deliver(self, completion: RxCompletion) -> None:
        # Recycle the host buffer: the OS copied it out.
        if completion.buffer is not None:
            self.rx_buffers.release(completion.buffer)
        if self.trace is not None:
            self.trace.emit(
                "host.pdu.delivered",
                actor=self.name,
                vc=completion.vc,
                size=completion.size,
                cells=completion.cells,
                latency=self.sim.now - completion.received_at,
            )
        if self.on_pdu is not None:
            self.on_pdu(completion)

    # -- observability ------------------------------------------------------------

    def stats(self) -> NicStats:
        """Snapshot every experiment-relevant counter."""
        reasm = self.rx_engine.reassembler.stats
        return NicStats(
            pdus_sent=self.tx_engine.pdus_sent.count,
            pdus_received=self.rx_engine.pdus_delivered.count,
            cells_sent=self.tx_engine.cells_sent.count,
            cells_received=self.rx_engine.cells_received.count,
            tx_throughput_mbps=self.tx_engine.throughput.megabits_per_second(),
            rx_throughput_mbps=self.rx_engine.throughput.megabits_per_second(),
            tx_engine_utilization=self.tx_clock.utilization(),
            rx_engine_utilization=self.rx_clock.utilization(),
            host_cpu_utilization=self.cpu.utilization(),
            bus_utilization=self.bus.utilization(),
            rx_fifo_overflows=self.rx_fifo.overflows.count,
            rx_fifo_peak=self.rx_fifo.peak_occupancy,
            cells_unknown_vc=self.rx_engine.cells_unknown_vc.count,
            pdus_discarded=reasm.pdus_discarded,
            host_cycles_total=self.cpu.total_cycles,
            interrupts_delivered=self.interrupts.delivered.count,
            cells_epd_discarded=self.rx_engine.cells_epd_discarded.count,
            cells_ppd_discarded=self.rx_engine.cells_ppd_discarded.count,
            frames_discarded_early=self.rx_engine.frames_discarded_early.count,
            frames_truncated=self.rx_engine.frames_truncated.count,
            cells_hec_discarded=self.rx_engine.cells_hec_discarded.count,
            contexts_quota_evicted=reasm.failures.get(
                ReassemblyFailure.QUOTA, 0
            ),
            oam_ping_timeouts=self.oam_ping_timeouts,
            oam_ping_retries=self.oam_ping_retries,
            oam_cc_received=self.oam_cc_received,
            oam_ais_received=self.oam_ais_received,
            oam_rdi_received=self.oam_rdi_received,
        )


def connect(
    sim: Simulator,
    a: HostNetworkInterface,
    b: HostNetworkInterface,
    link: Optional[LinkSpec] = None,
    propagation_delay: float = 0.0,
    loss_ab: Optional[LossModel] = None,
    loss_ba: Optional[LossModel] = None,
) -> tuple[PhysicalLink, PhysicalLink]:
    """Join two interfaces with a bidirectional link pair.

    The link spec defaults to interface *a*'s configured link.  Returns
    the (a->b, b->a) links for loss-model or utilisation inspection.
    """
    spec = link if link is not None else a.config.link
    ab = PhysicalLink(
        sim,
        spec,
        sink=b.rx_input,
        propagation_delay=propagation_delay,
        loss_model=loss_ab,
        name=f"{a.name}->{b.name}",
    )
    ba = PhysicalLink(
        sim,
        spec,
        sink=a.rx_input,
        propagation_delay=propagation_delay,
        loss_model=loss_ba,
        name=f"{b.name}->{a.name}",
    )
    a.attach_tx_link(ab)
    b.attach_tx_link(ba)
    a.start()
    b.start()
    return ab, ba

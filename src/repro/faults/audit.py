"""Cell conservation: offered == delivered + accounted drops.

The receive path has many places a cell can die -- the wire, the HEC
check, the EPD/PPD admission filter, the FIFO, the VC lookup, adaptor
buffer exhaustion, the reassembler's failure taxonomy -- and each one
keeps its own counter.  The auditor reconciles them all against the
sender's ledger: every cell the link ever carried must sit in exactly
one bucket.  A nonzero residue means a counter is missing or double
counted, which is precisely the class of accounting bug that makes
loss experiments quietly wrong.

The invariant holds at *any* instant, not just at quiescence: cells
still on the wire, queued in the FIFO, held by an open reassembly
context, in the engine's hands, or riding a posted DMA are themselves
buckets.  After a drained run those in-flight buckets read zero and
the ledger reduces to the steady-state identity::

    offered == delivered + sum(itemised drops)

:meth:`CellConservationAuditor.closed` builds the books for a whole
simulator from its build-order component list, which is how
:func:`repro.obs.observe` audits any experiment without wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.atm.link import PhysicalLink
from repro.atm.mux import OutputPort
from repro.atm.switch import AtmSwitch


class CellConservationError(AssertionError):
    """The books do not balance; the message itemises every bucket."""


@dataclass(frozen=True)
class ConservationLedger:
    """One instant's complete cell accounting for a receive path.

    All counts are cells.  *offered* is the sender-side truth (cells
    the link was asked to carry); every other field is a disposition
    bucket.  The buckets are mutually exclusive by construction -- each
    counter increments at a different point of a cell's one-way trip.
    """

    offered: int
    #: Dropped by the link's loss model (never delivered).
    link_lost: int
    #: Serialized or propagating, delivery still scheduled.
    wire_in_flight: int
    #: Rejected by the framer's HEC check at admission.
    hec_discarded: int
    #: Refused whole-frame at admission (Early Packet Discard).
    epd_discarded: int
    #: Dropped mid-frame after a loss (Partial Packet Discard).
    ppd_discarded: int
    #: Hard receive-FIFO overflow.
    fifo_overflow: int
    #: Sitting in the receive FIFO right now.
    fifo_queued: int
    #: Popped by the engine, verdict not yet booked (0 or 1).
    engine_in_flight: int
    #: Management cells consumed by the OAM unit.
    oam_cells: int
    #: Cells for VCs never opened (CAM/table miss).
    unknown_vc: int
    #: Dropped because adaptor buffer memory was exhausted.
    no_adaptor_buffer: int
    #: Held by reassembly contexts still open.
    reassembly_open: int
    #: Rode a PDU the reassembler delivered.
    delivered: int
    #: Never attributable to any context (SAR decode failures,
    #: continuation cells with no open PDU).
    orphaned: int
    #: Cells lost with their PDU, itemised by reassembly failure cause
    #: (crc, length, timeout, quota, sequence, ...).
    discarded_by: Mapping[str, int] = field(default_factory=dict)
    # -- disposition of *delivered* cells (partition, not new buckets) --
    #: Landed in a host buffer (DMA complete).
    to_host: int = 0
    #: PDU completed but no host buffer was available.
    no_host_buffer: int = 0
    #: PDU completed, DMA still in flight.
    dma_in_flight: int = 0
    # -- mid-network buckets (zero unless switches/ports sit on the path) --
    #: CLP=1 cells discarded first under output-port pressure.
    clp_discarded: int = 0
    #: Tail-dropped by a full output-port buffer.
    port_full_discarded: int = 0
    #: Sitting in output-port buffers right now.
    port_queued: int = 0
    #: Inside a switch fabric (fabric delay still pending).
    fabric_in_flight: int = 0
    #: Arrived at a switch with no routing entry.
    unroutable: int = 0

    @property
    def accounted(self) -> int:
        """Sum of every disposition bucket."""
        return (
            self.link_lost
            + self.wire_in_flight
            + self.hec_discarded
            + self.epd_discarded
            + self.ppd_discarded
            + self.fifo_overflow
            + self.fifo_queued
            + self.engine_in_flight
            + self.oam_cells
            + self.unknown_vc
            + self.no_adaptor_buffer
            + self.reassembly_open
            + self.delivered
            + self.orphaned
            + self.clp_discarded
            + self.port_full_discarded
            + self.port_queued
            + self.fabric_in_flight
            + self.unroutable
            + sum(self.discarded_by.values())
        )

    @property
    def unaccounted(self) -> int:
        """The residue; zero when every cell has a named fate."""
        return self.offered - self.accounted

    @property
    def is_conserved(self) -> bool:
        return self.unaccounted == 0 and self.dma_in_flight >= 0

    def breakdown(self) -> Dict[str, int]:
        """Flat bucket -> count map (itemised failures inlined)."""
        flat = {
            "link_lost": self.link_lost,
            "wire_in_flight": self.wire_in_flight,
            "hec_discarded": self.hec_discarded,
            "epd_discarded": self.epd_discarded,
            "ppd_discarded": self.ppd_discarded,
            "fifo_overflow": self.fifo_overflow,
            "fifo_queued": self.fifo_queued,
            "engine_in_flight": self.engine_in_flight,
            "oam_cells": self.oam_cells,
            "unknown_vc": self.unknown_vc,
            "no_adaptor_buffer": self.no_adaptor_buffer,
            "reassembly_open": self.reassembly_open,
            "delivered": self.delivered,
            "orphaned": self.orphaned,
            "clp_discarded": self.clp_discarded,
            "port_full_discarded": self.port_full_discarded,
            "port_queued": self.port_queued,
            "fabric_in_flight": self.fabric_in_flight,
            "unroutable": self.unroutable,
        }
        for why, cells in sorted(self.discarded_by.items()):
            flat[f"reassembly_{why}"] = cells
        return flat

    def format(self) -> str:
        """Human-readable ledger for failure messages and reports."""
        lines = [f"offered {self.offered}"]
        for bucket, count in self.breakdown().items():
            if count:
                lines.append(f"  {bucket:<24} {count}")
        lines.append(f"  {'accounted':<24} {self.accounted}")
        lines.append(f"  {'unaccounted':<24} {self.unaccounted}")
        return "\n".join(lines)


@dataclass(frozen=True)
class AuditDomain:
    """What one ledger closes over, by role, and why it cannot close.

    *unclosed* is None unless cells enter or leave by a path no counter
    here sees.
    """

    injections: Tuple[PhysicalLink, ...]
    hops: Tuple[PhysicalLink, ...] = ()
    receivers: Tuple[Any, ...] = ()
    switches: Tuple[AtmSwitch, ...] = ()
    ports: Tuple[OutputPort, ...] = ()
    unclosed: Optional[str] = None

    @classmethod
    def of(cls, components: Sequence[Any]) -> "AuditDomain":
        """The domain of everything in *components* (a build-order list).

        Injections are the links that no output port feeds, hops the
        port-fed ones; every port, switch and interface is included.
        The books cannot close when a link delivers to something that
        is neither a listed interface nor a listed switch's input, or
        when cells reach an interface's receive FIFO with no link in.
        """
        from repro.nic.nic import HostNetworkInterface

        links = [c for c in components if isinstance(c, PhysicalLink)]
        ports = tuple(c for c in components if isinstance(c, OutputPort))
        switches = tuple(c for c in components if isinstance(c, AtmSwitch))
        receivers = tuple(
            c for c in components if isinstance(c, HostNetworkInterface)
        )
        port_fed = {id(port.link) for port in ports}
        unclosed = None
        linked = set()
        for link in links:
            sink = link.sink
            nic = next((r for r in receivers if r.rx_input is sink), None)
            if nic is not None:
                linked.add(id(nic))
            elif not any(getattr(sink, "switch", None) is s for s in switches):
                label = getattr(sink, "name", None) or getattr(
                    sink, "__name__", type(sink).__name__
                )
                unclosed = unclosed or (
                    f"{link.name} delivers to {label}, outside the ledger"
                )
        for nic in receivers:
            if id(nic) not in linked and nic.rx_fifo.cells_offered:
                unclosed = unclosed or (
                    f"{nic.name}'s receive FIFO is fed without a link"
                )
        return cls(
            injections=tuple(x for x in links if id(x) not in port_fed),
            hops=tuple(x for x in links if id(x) in port_fed),
            receivers=receivers,
            switches=switches,
            ports=ports,
            unclosed=unclosed,
        )


class CellConservationAuditor:
    """Reconciles a link/receiver pair's counters into a ledger.

    Wire it to the forward link and the receiving interface of any
    testbed; :meth:`snapshot` is pure observation (no state is
    modified), so it can be called mid-run as often as wanted.

    Multi-hop paths are audited by naming the intermediate stages:
    *switches* and their contended output *ports* contribute the
    fabric/port buckets, and *extra_links* are the downstream hops
    (the port-to-receiver wires), whose losses and in-flight cells
    aggregate with the entry link's.  The entry link stays the
    offered-side truth; a port's pop feeds its downstream link
    synchronously, so no cells hide between a port and its wire.

    A *bidirectional* fabric (both hosts inject through the same
    switches, so the switch-wide counters see both directions) is
    audited by closing the domain instead of picking one direction:
    *extra_injections* lists the other entry links (their cells add to
    the offered side) and *extra_receivers* the other terminating
    interfaces (their engine buckets merge with the primary
    receiver's).  Every port the named switches feed must then appear
    in *ports* or *extra_links*' upstream, or cells will legitimately
    escape the ledger.  :meth:`closed` does that closing from a
    simulator's component list instead of by hand.
    """

    def __init__(
        self,
        link: PhysicalLink,
        receiver,
        switches=(),
        ports=(),
        extra_links=(),
        extra_injections=(),
        extra_receivers=(),
    ) -> None:
        self._components: Optional[Sequence[Any]] = None
        self._domain = AuditDomain(
            injections=(link, *extra_injections),
            hops=tuple(extra_links),
            receivers=(receiver, *extra_receivers),
            switches=tuple(switches),
            ports=tuple(ports),
        )

    @classmethod
    def closed(cls, components: Sequence[Any]) -> "CellConservationAuditor":
        """The ledger over a simulator's *components*, whatever is built.

        The roles (:meth:`AuditDomain.of`) are taken afresh at every
        snapshot; :attr:`unclosed` says when the books cannot close.
        """
        auditor = cls.__new__(cls)
        auditor._components = components
        return auditor

    @property
    def domain(self) -> AuditDomain:
        """The links, receivers, switches and ports the books cover."""
        if self._components is not None:
            return AuditDomain.of(self._components)
        return self._domain

    @property
    def unclosed(self) -> Optional[str]:
        """Why the books cannot close, or None when they can."""
        return self.domain.unclosed

    def snapshot(self) -> ConservationLedger:
        """Read every counter and assemble the instant's ledger."""
        domain = self.domain
        offered = lost = wire = 0
        for inj in domain.injections:
            inj_sent = inj.cells_sent.count
            inj_lost = inj.cells_lost.count
            offered += inj_sent
            lost += inj_lost
            wire += inj_sent - inj_lost - inj.cells_delivered.count
        for hop in domain.hops:
            hop_lost = hop.cells_lost.count
            lost += hop_lost
            wire += hop.cells_sent.count - hop_lost - hop.cells_delivered.count

        unroutable = sum(
            sw.cells_unroutable.count for sw in domain.switches
        )
        fabric = sum(sw.cells_switched.count for sw in domain.switches) - sum(
            port.enqueued.count + port.dropped.count for port in domain.ports
        )
        clp_discarded = sum(port.dropped_clp.count for port in domain.ports)
        port_full = sum(port.dropped_full.count for port in domain.ports)
        port_queued = sum(port.backlog for port in domain.ports)

        engines = [r.rx_engine for r in domain.receivers]
        engine_in_flight = 0
        delivered = 0
        to_host = 0
        no_host = 0
        hec = epd = ppd = 0
        fifo_overflow = fifo_queued = 0
        oam = unknown_vc = no_buffer = 0
        reassembly_open = 0
        orphaned = 0
        discarded_by: dict = {}
        for rx in engines:
            reasm = rx.reassembler.stats
            consumed_splits = (
                rx.oam_cells.count
                + rx.cells_unknown_vc.count
                + rx.cells_no_buffer.count
                + reasm.cells_consumed
            )
            engine_in_flight += rx.cells_received.count - consumed_splits
            delivered += reasm.cells_delivered
            to_host += rx.cells_delivered_to_host.count
            no_host += rx.cells_no_host_buffer.count
            hec += rx.cells_hec_discarded.count
            epd += rx.cells_epd_discarded.count
            ppd += rx.cells_ppd_discarded.count
            fifo_overflow += rx.fifo.overflows.count
            fifo_queued += len(rx.fifo)
            oam += rx.oam_cells.count
            unknown_vc += rx.cells_unknown_vc.count
            no_buffer += rx.cells_no_buffer.count
            reassembly_open += rx.reassembler.open_cells()
            orphaned += reasm.cells_orphaned
            for why, cells in reasm.cells_discarded_by.items():
                discarded_by[why.value] = discarded_by.get(why.value, 0) + cells

        return ConservationLedger(
            offered=offered,
            link_lost=lost,
            wire_in_flight=wire,
            hec_discarded=hec,
            epd_discarded=epd,
            ppd_discarded=ppd,
            fifo_overflow=fifo_overflow,
            fifo_queued=fifo_queued,
            engine_in_flight=engine_in_flight,
            oam_cells=oam,
            unknown_vc=unknown_vc,
            no_adaptor_buffer=no_buffer,
            reassembly_open=reassembly_open,
            delivered=delivered,
            orphaned=orphaned,
            discarded_by=discarded_by,
            to_host=to_host,
            no_host_buffer=no_host,
            dma_in_flight=delivered - to_host - no_host,
            clp_discarded=clp_discarded,
            port_full_discarded=port_full,
            port_queued=port_queued,
            fabric_in_flight=fabric,
            unroutable=unroutable,
        )

    def assert_conserved(self) -> ConservationLedger:
        """Snapshot and raise :class:`CellConservationError` on a residue."""
        ledger = self.snapshot()
        if not ledger.is_conserved:
            raise CellConservationError(
                f"cell conservation violated "
                f"({ledger.unaccounted} unaccounted):\n{ledger.format()}"
            )
        return ledger

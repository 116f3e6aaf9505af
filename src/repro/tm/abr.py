"""ABR end-system behaviour: the source and destination rate loop.

TM 4.0's available-bit-rate service closes a control loop around every
VC: the source paces itself to a dynamic *allowed cell rate* (ACR) and
emits a forward RM cell every Nrm data cells; the network marks those
cells (EFCI on data cells above a queue threshold, explicit rates
stamped by :class:`~repro.tm.erica.EricaAllocator`); the destination
turns each forward RM cell around with its congestion observation; and
the source applies the returned fields:

- CI set -> multiplicative decrease: ``acr = max(mcr, acr * (1 - RDF))``
- CI clear, NI clear -> additive increase: ``acr = min(pcr, acr + RIF * pcr)``
- always -> clamp to the network's explicit rate: ``acr = min(acr, ER)``

One :class:`AbrAgent` serves a whole interface, playing *source* for
VCs registered with :meth:`AbrAgent.add_vc` and *destination* for any
forward RM cell that arrives.  It plugs into the NIC through three
duck-typed hooks (the nic package never imports this one):
``TxEngine.abr`` (dynamic pacing + RM interleave),
``RxEngine.on_user_cell`` (EFCI observation) and
``HostNetworkInterface.on_rm`` (RM demux off the management lane).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.atm.addressing import VcAddress
from repro.atm.cell import AtmCell
from repro.sim.monitor import Counter
from repro.tm.rm import RmCell, RmFormatError


@dataclass(frozen=True)
class AbrParams:
    """Per-VC ABR contract parameters (rates in cells per second)."""

    pcr: float
    mcr: float = 0.0
    #: Initial cell rate; defaults to PCR/16 (bounded below by MCR).
    icr: Optional[float] = None
    #: Rate-increase factor: additive step is ``rif * pcr`` per RM cell.
    rif: float = 1.0 / 16.0
    #: Rate-decrease factor: multiplicative cut per CI-marked RM cell.
    rdf: float = 1.0 / 16.0
    #: Data cells between forward RM cells.
    nrm: int = 32

    def __post_init__(self) -> None:
        if self.pcr <= 0:
            raise ValueError("PCR must be positive")
        if not 0 <= self.mcr <= self.pcr:
            raise ValueError("MCR must sit in [0, PCR]")
        if not 0 < self.rif <= 1 or not 0 < self.rdf <= 1:
            raise ValueError("RIF/RDF must sit in (0, 1]")
        if self.nrm < 2:
            raise ValueError("Nrm must be >= 2")

    @property
    def initial_rate(self) -> float:
        if self.icr is not None:
            return max(self.mcr, min(self.icr, self.pcr))
        return max(self.mcr, self.pcr / 16.0, self.floor)

    @property
    def floor(self) -> float:
        """Hard lower bound on ACR so pacing intervals stay finite."""
        return max(self.mcr, self.pcr * 1e-3)


class _SourceState:
    __slots__ = ("params", "acr", "since_rm")

    def __init__(self, params: AbrParams) -> None:
        self.params = params
        self.acr = params.initial_rate
        # First data cell triggers an RM cell immediately, so the loop
        # gets feedback within one round trip of the first PDU.
        self.since_rm = params.nrm - 1


class AbrAgent:
    """Source + destination ABR behaviour for one interface."""

    def __init__(self, sim, interface, name: str = "") -> None:
        self.sim = sim
        self.interface = interface
        self.name = name or f"{interface.name}.abr"
        self._sources: Dict[VcAddress, _SourceState] = {}
        self._efci_seen: Dict[VcAddress, bool] = {}
        self.rm_sent = Counter(f"{self.name}.rm-sent")
        self.rm_received = Counter(f"{self.name}.rm-received")
        self.rm_turnaround = Counter(f"{self.name}.rm-turnaround")
        self.rm_bad = Counter(f"{self.name}.rm-bad")
        self.rate_increases = Counter(f"{self.name}.rate-up")
        self.rate_decreases = Counter(f"{self.name}.rate-down")
        #: Observability hook (repro.obs): a TraceRecorder, or None.
        self.trace = None
        # Wire the three duck-typed NIC touchpoints.
        interface.tx_engine.abr = self
        interface.rx_engine.on_user_cell = self.observe_cell
        interface.on_rm = self.receive_rm_cell

    # -- source side -----------------------------------------------------------

    def add_vc(self, vc: VcAddress, params: AbrParams) -> None:
        """Register *vc* as an ABR source on this interface."""
        self._sources[vc] = _SourceState(params)

    def acr_of(self, vc: VcAddress) -> Optional[float]:
        """Current allowed cell rate (cells/s), or None if not managed."""
        state = self._sources.get(vc)
        return None if state is None else state.acr

    def interval_of(self, vc: VcAddress) -> Optional[float]:
        """TxEngine pacing hook: seconds between cells at the ACR."""
        state = self._sources.get(vc)
        return None if state is None else 1.0 / state.acr

    def data_cell_sent(self, vc: VcAddress) -> Optional[AtmCell]:
        """TxEngine interleave hook: a forward RM cell every Nrm cells."""
        state = self._sources.get(vc)
        if state is None:
            return None
        state.since_rm += 1
        if state.since_rm < state.params.nrm:
            return None
        state.since_rm = 0
        rm = RmCell(
            vc=vc,
            forward=True,
            er=state.params.pcr,
            ccr=state.acr,
            mcr=state.params.mcr,
        )
        self.rm_sent.increment()
        if self.trace is not None:
            self.trace.emit(
                "rm.cell.sent", actor=self.name, vc=vc, ccr=state.acr
            )
        return rm.encode()

    def _update_source(self, rm: RmCell) -> None:
        state = self._sources.get(rm.vc)
        if state is None:
            return
        params = state.params
        before = state.acr
        if rm.ci:
            state.acr = max(params.mcr, state.acr * (1.0 - params.rdf))
        elif not rm.ni:
            state.acr = min(params.pcr, state.acr + params.rif * params.pcr)
        state.acr = min(state.acr, max(rm.er, params.mcr))
        state.acr = max(state.acr, params.floor)
        if state.acr > before:
            self.rate_increases.increment()
        elif state.acr < before:
            self.rate_decreases.increment()
        if self.trace is not None:
            self.trace.emit(
                "abr.rate.update",
                actor=self.name,
                vc=rm.vc,
                acr=state.acr,
                er=rm.er,
                ci=rm.ci,
                ni=rm.ni,
            )

    # -- destination side --------------------------------------------------------

    def observe_cell(self, cell: AtmCell) -> None:
        """RxEngine per-user-cell hook: latch EFCI marks per VC."""
        if cell.congestion_experienced:
            self._efci_seen[VcAddress(cell.vpi, cell.vci)] = True

    def _turn_around(self, rm: RmCell) -> None:
        ci = self._efci_seen.pop(rm.vc, False)
        backward = rm.turned_around(ci=ci)
        self.rm_turnaround.increment()
        if self.trace is not None:
            self.trace.emit(
                "rm.cell.turnaround", actor=self.name, vc=rm.vc, ci=ci
            )
        self.interface.inject_cell(backward.encode())

    # -- RM demux ---------------------------------------------------------------

    def receive_rm_cell(self, cell: AtmCell) -> None:
        """NIC ``on_rm`` hook: demux by direction bit."""
        try:
            rm = RmCell.decode(cell)
        except RmFormatError:
            self.rm_bad.increment()
            return
        self.rm_received.increment()
        if rm.forward:
            self._turn_around(rm)
        else:
            self._update_source(rm)

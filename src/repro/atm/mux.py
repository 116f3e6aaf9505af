"""Cell multiplexing onto an output link with finite buffering.

An :class:`OutputPort` is the canonical ATM congestion point: a FIFO of
cells draining at link rate.  When the FIFO is full, arriving cells are
dropped (drop-tail) -- this is where correlated loss comes from in real
switches.  A :class:`CellMultiplexer` funnels several upstream sources
into one port.

Two traffic-management behaviours hang off the queue depth (both off
by default; see docs/TRAFFIC.md):

- **EFCI marking** (*efci_threshold*): user cells admitted while the
  queue sits at or above the threshold get their EFCI PTI bit set, the
  forward-congestion signal ABR destinations fold into returned RM
  cells;
- **CLP-first discard** (*clp_threshold*, partial buffer sharing):
  CLP=1 cells -- the ones a tagging UPC marked as outside contract --
  are refused once the queue reaches the threshold, so under pressure
  the tagged traffic dies first and committed traffic keeps the whole
  buffer.  Both drop classes are itemised (``dropped_clp`` /
  ``dropped_full``) so the conservation ledger stays balanced.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.atm.addressing import VcAddress
from repro.atm.cell import AtmCell
from repro.atm.link import PhysicalLink
from repro.sim.core import Simulator
from repro.sim.monitor import Counter

#: PTI bit 1: EFCI, "congestion experienced", on user cells.
_EFCI_BIT = 0b010


class OutputPort:
    """A bounded cell FIFO drained onto a physical link.

    The drain is event-driven: a cell offered to an idle port goes
    straight to the link, and each serialization's completion pulls the
    next queued cell.  The port keeps a high-water mark of its queue
    (:attr:`peak_occupancy`) for buffer-sizing experiments, and per-VC
    tallies expose who is losing for fairness analysis; who is queueing
    is counted from the queue when asked.
    """

    def __init__(
        self,
        sim: Simulator,
        link: PhysicalLink,
        buffer_cells: Optional[int] = None,
        name: str = "port",
        efci_threshold: Optional[int] = None,
        clp_threshold: Optional[int] = None,
    ) -> None:
        if buffer_cells is not None and buffer_cells < 1:
            raise ValueError("buffer_cells must be >= 1 or None (unbounded)")
        if efci_threshold is not None and efci_threshold < 0:
            raise ValueError("efci_threshold must be >= 0")
        if clp_threshold is not None and clp_threshold < 1:
            raise ValueError("clp_threshold must be >= 1")
        self.sim = sim
        self.link = link
        self.buffer_cells = buffer_cells
        self.name = name
        self.efci_threshold = efci_threshold
        self.clp_threshold = clp_threshold
        self._queue: Deque[AtmCell] = deque()
        self._draining = False
        self.enqueued = Counter(f"{name}.enqueued")
        self.dropped = Counter(f"{name}.dropped")
        #: CLP=1 cells refused at/above the CLP threshold (or when full).
        self.dropped_clp = Counter(f"{name}.dropped-clp")
        #: CLP=0 cells tail-dropped by a full buffer.
        self.dropped_full = Counter(f"{name}.dropped-full")
        self.efci_marked = Counter(f"{name}.efci")
        #: Most cells ever held, the one in service on an idle port's
        #: link counting as 1.
        self.peak_occupancy = 0
        self._vc_enqueued: Dict[VcAddress, int] = {}
        self._vc_dropped: Dict[VcAddress, int] = {}
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.
        self.trace = sim.trace
        # Bound once: the link calls it back at every cell's wire-out.
        self._then_drain_next = self._drain_next
        sim.components.append(self)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog(self) -> int:
        """Cells sitting in the buffer right now."""
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        return (
            self.buffer_cells is not None
            and len(self._queue) >= self.buffer_cells
        )

    def _clp_pressure(self) -> bool:
        """True when CLP=1 arrivals must be refused (partial buffer
        sharing: tagged cells only get the buffer below the threshold)."""
        if self.clp_threshold is not None:
            return len(self._queue) >= self.clp_threshold
        return self.is_full

    def _drop(self, cell: AtmCell, vc: VcAddress, reason: str) -> bool:
        self.dropped.increment()
        self._vc_dropped[vc] = self._vc_dropped.get(vc, 0) + 1
        if reason == "clp":
            self.dropped_clp.increment()
            if self.trace is not None:
                self.trace.emit(
                    "cell.drop", actor=self.name, cell=cell, reason="clp"
                )
        else:
            self.dropped_full.increment()
            if self.trace is not None:
                self.trace.emit(
                    "cell.drop", actor=self.name, cell=cell, reason="port_full"
                )
        return False

    def offer(self, cell: AtmCell) -> bool:
        """Accept *cell* into the FIFO, or drop it if full.

        Drop order under pressure: CLP=1 cells go first (at the CLP
        threshold), then everything tail-drops at the hard limit.
        """
        vc = cell.vc
        queue = self._queue
        if cell.clp and self._clp_pressure():
            return self._drop(cell, vc, "clp")
        # is_full, inline: this runs once per switched cell.
        if self.buffer_cells is not None and len(queue) >= self.buffer_cells:
            return self._drop(cell, vc, "port_full")
        if (
            self.efci_threshold is not None
            and cell.is_user_cell
            and not cell.congestion_experienced
            and len(queue) >= self.efci_threshold
        ):
            marked = cell.with_header(pti=cell.pti | _EFCI_BIT)
            self.efci_marked.increment()
            if self.trace is not None:
                self.trace.emit("port.efci", actor=self.name, cell=marked)
            cell = marked
        self.enqueued.count += 1
        self._vc_enqueued[vc] = self._vc_enqueued.get(vc, 0) + 1
        if not self._draining:
            # An idle port's queue is empty: the cell goes to the link.
            self._draining = True
            if not self.peak_occupancy:
                self.peak_occupancy = 1
            self.link.send(cell, self._then_drain_next)
            return True
        queue.append(cell)
        if len(queue) > self.peak_occupancy:
            self.peak_occupancy = len(queue)
        return True

    # Alias so a port can terminate a PhysicalLink directly.
    receive_cell = offer

    def _drain_next(self) -> None:
        if not self._queue:
            self._draining = False
            return
        self.link.send(self._queue.popleft(), self._then_drain_next)

    # -- observability ---------------------------------------------------------

    @property
    def loss_ratio(self) -> float:
        offered = self.enqueued.count + self.dropped.count
        return self.dropped.count / offered if offered else 0.0

    def occupancy_of(self, vc: VcAddress) -> int:
        """Cells of *vc* sitting in the buffer right now."""
        return sum(1 for cell in self._queue if cell.vc == vc)

    def occupancy_by_vc(self) -> Dict[VcAddress, int]:
        """Current buffer occupancy itemised by VC, each VC keyed in the
        order of its oldest queued cell."""
        counts: Dict[VcAddress, int] = {}
        for cell in self._queue:
            vc = cell.vc
            counts[vc] = counts.get(vc, 0) + 1
        return counts

    def loss_ratio_by_vc(self) -> Dict[VcAddress, float]:
        """Per-VC drop fraction, for fairness analysis.

        Covers the VCs still routed to this port: a switch that removes
        a route calls :meth:`forget` for the VC it carried.
        """
        ratios: Dict[VcAddress, float] = {}
        for vc in set(self._vc_enqueued) | set(self._vc_dropped):
            accepted = self._vc_enqueued.get(vc, 0)
            lost = self._vc_dropped.get(vc, 0)
            offered = accepted + lost
            ratios[vc] = lost / offered if offered else 0.0
        return ratios

    def forget(self, vc: VcAddress) -> None:
        """Drop *vc*'s per-VC tallies (its route through here is gone)."""
        self._vc_enqueued.pop(vc, None)
        self._vc_dropped.pop(vc, None)


class CellMultiplexer:
    """N-to-1 cell funnel: many sources feed one :class:`OutputPort`.

    Sources call :meth:`input` (or use the object as a cell sink).  The
    multiplexer itself adds no delay -- contention shows up as queueing
    in the port, exactly as in an output-buffered switch element.
    """

    def __init__(self, sim: Simulator, port: OutputPort, name: str = "mux"):
        self.sim = sim
        self.port = port
        self.name = name
        self.cells_in = Counter(f"{name}.in")

    def input(self, cell: AtmCell) -> bool:
        """Feed one cell through the mux; False if the port dropped it."""
        self.cells_in.increment()
        return self.port.offer(cell)

    receive_cell = input

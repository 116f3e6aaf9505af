"""Link-side cell FIFOs.

Two small hardware FIFOs decouple the protocol engines from the cell
clock of the link:

- **transmit FIFO**: the TX engine pushes (blocking -- the engine stalls
  when it is ahead of the link), the framer drains one cell per slot;
- **receive FIFO**: the link pushes (non-blocking -- a full FIFO *drops*
  the cell, there is no backpressure on a network), the RX engine pops.

The asymmetry is the architectural point measured by F5: the TX FIFO
converts engine speed into stalls, the RX FIFO converts engine slowness
into loss.  Occupancy is tracked time-weighted for sizing studies.
"""

from __future__ import annotations

from typing import Optional

from repro.atm.cell import AtmCell
from repro.sim.core import Event, Simulator
from repro.sim.monitor import Counter, TimeWeightedStat
from repro.sim.resources import Store


class CellFifo:
    """A bounded hardware cell FIFO with occupancy statistics."""

    def __init__(self, sim: Simulator, depth_cells: int, name: str = "fifo"):
        if depth_cells < 1:
            raise ValueError("FIFO depth must be >= 1 cell")
        self.sim = sim
        self.depth_cells = depth_cells
        self.name = name
        self._store = Store(sim, capacity=depth_cells, name=name)
        self.occupancy = TimeWeightedStat(sim.now, 0)
        self.overflows = Counter(f"{name}.overflow")
        #: Observability hook (repro.obs): a TraceRecorder, or None.
        self.trace = None

    def __len__(self) -> int:
        return len(self._store)

    @property
    def is_full(self) -> bool:
        return self._store.is_full

    @property
    def peak_occupancy(self) -> int:
        return self._store.peak_occupancy

    @property
    def cells_in(self) -> int:
        return self._store.total_put

    @property
    def cells_out(self) -> int:
        return self._store.total_got

    # -- producer side ------------------------------------------------------

    def put(self, cell: AtmCell) -> Event:
        """Blocking push (TX side): the event fires once space exists."""
        ev = self._store.put(cell)
        self.occupancy.record(self.sim.now, len(self._store))
        if ev.triggered:
            if self.trace is not None:
                self.trace.emit(
                    "fifo.enq", actor=self.name, cell=cell,
                    occupancy=len(self._store),
                )
        else:
            # The producer is stalled; sample again once accepted.
            def accepted(_ev: Event) -> None:
                self.occupancy.record(self.sim.now, len(self._store))
                if self.trace is not None:
                    self.trace.emit(
                        "fifo.enq", actor=self.name, cell=cell,
                        occupancy=len(self._store),
                    )

            ev.add_callback(accepted)
        return ev

    def try_put(self, cell: AtmCell) -> bool:
        """Non-blocking push (RX side): False means the cell was dropped."""
        accepted = self._store.try_put(cell)
        if accepted:
            self.occupancy.record(self.sim.now, len(self._store))
            if self.trace is not None:
                self.trace.emit(
                    "fifo.enq", actor=self.name, cell=cell,
                    occupancy=len(self._store),
                )
        else:
            self.overflows.increment()
            if self.trace is not None:
                self.trace.emit(
                    "cell.drop", actor=self.name, cell=cell,
                    reason="fifo_overflow",
                )
        return accepted

    # -- consumer side ---------------------------------------------------------

    def get(self) -> Event:
        """Blocking pop: the event fires with the next cell."""
        ev = self._store.get()

        def sample(got: Event) -> None:
            self.occupancy.record(self.sim.now, len(self._store))
            if self.trace is not None:
                self.trace.emit(
                    "fifo.deq", actor=self.name, cell=got.value,
                    occupancy=len(self._store),
                )

        ev.add_callback(sample)
        return ev

    def try_get(self) -> Optional[AtmCell]:
        """Non-blocking pop; None when empty."""
        ok, item = self._store.try_get()
        if ok:
            self.occupancy.record(self.sim.now, len(self._store))
            if self.trace is not None:
                self.trace.emit(
                    "fifo.deq", actor=self.name, cell=item,
                    occupancy=len(self._store),
                )
            return item
        return None

    @property
    def fill_fraction(self) -> float:
        """Instantaneous occupancy as a fraction of depth (backpressure)."""
        return len(self._store) / self.depth_cells

    @property
    def cells_offered(self) -> int:
        """Everything pushed at the FIFO: accepted plus overflowed.

        ``cells_in`` counts only *accepted* cells (a rejected ``try_put``
        never reaches the store's put ledger), so the two buckets are
        disjoint and this sum never double-counts a dropped cell.
        """
        return self.cells_in + self.overflows.count

    @property
    def loss_ratio(self) -> float:
        offered = self.cells_offered
        return self.overflows.count / offered if offered else 0.0

"""Link-side cell FIFOs.

Two small hardware FIFOs decouple the protocol engines from the cell
clock of the link:

- **transmit FIFO**: the TX engine pushes (blocking -- the engine stalls
  when it is ahead of the link), the framer drains one cell per slot:
  it pulls the next cell at each wire-out, and when it finds the FIFO
  empty the next push hands the cell straight to it;
- **receive FIFO**: the link pushes (non-blocking -- a full FIFO *drops*
  the cell, there is no backpressure on a network), the RX engine pops.

The asymmetry is the architectural point measured by F5: the TX FIFO
converts engine speed into stalls, the RX FIFO converts engine slowness
into loss.  Occupancy is tracked time-weighted for sizing studies.
"""

from __future__ import annotations

from typing import Callable, Optional

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
        #: The consumer waiting in :meth:`pull` for the next cell, if any.
        self._consumer: Optional[Callable[[AtmCell], None]] = None
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
        stalled = self.push(cell)
        if stalled is not None:
            return stalled
        accepted = Event(self.sim)
        accepted.trigger(None)
        return accepted

    def push(self, cell: AtmCell) -> Optional[Event]:
        """Blocking push without a wake-up entry when there is room.

        Returns None when the cell went in at once (the producer carries
        on in the same instant), else an event that fires once the
        consumer frees a slot and the cell is in.
        """
        consumer = self._consumer
        if consumer is not None:
            self._hand_over(consumer, cell)
            return None
        if self._store.try_put(cell):
            self.occupancy.record(self.sim.now, len(self._store))
            if self.trace is not None:
                self.trace.emit(
                    "fifo.enq", actor=self.name, cell=cell,
                    occupancy=len(self._store),
                )
            return None
        # The producer is stalled; sample now and again once accepted.
        ev = self._store.put(cell)
        self.occupancy.record(self.sim.now, len(self._store))

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
        consumer = self._consumer
        if consumer is not None:
            self._hand_over(consumer, cell)
            return True
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

    def _hand_over(
        self, consumer: Callable[[AtmCell], None], cell: AtmCell
    ) -> None:
        """Pass *cell* through the empty FIFO to the waiting *consumer*."""
        self._consumer = None
        self._store.total_put += 1
        self._store.total_got += 1
        self.occupancy.record(self.sim.now, 0)
        if self.trace is not None:
            self.trace.emit("fifo.enq", actor=self.name, cell=cell, occupancy=0)
            self.trace.emit("fifo.deq", actor=self.name, cell=cell, occupancy=0)
        consumer(cell)

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

    def pull(self, consumer: Callable[[AtmCell], None]) -> None:
        """Call ``consumer(cell)`` with the next cell, with no event.

        The callback path of a single consumer (the framer): a queued
        cell is taken at once, as :meth:`try_get` takes it; from an
        empty FIFO the next push hands its cell straight over.
        """
        cell = self.try_get()
        if cell is None:
            self._consumer = consumer
        else:
            consumer(cell)

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

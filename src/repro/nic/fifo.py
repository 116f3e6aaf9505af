"""Bounded hardware FIFOs: the link-side cell FIFOs and the host rings.

:class:`CellFifo` is the simulator's one bounded FIFO with a full bit.
Two small hardware FIFOs decouple the protocol engines from the cell
clock of the link:

- **transmit FIFO**: the TX engine offers cells (blocking -- the engine
  stalls when it is ahead of the link), the framer drains one cell per
  slot: it pulls the next cell at each wire-out, and when it finds the
  FIFO empty the next offer hands the cell straight to it;
- **receive FIFO**: the link pushes (non-blocking -- a full FIFO *drops*
  the cell, there is no backpressure on a network), the RX engine pulls
  the next cell as it finishes the previous one, and is handed the
  arriving cell directly when it was waiting on an empty FIFO.

Both sides are callbacks, so neither hand-off costs a queue entry.  A
producer that finds the FIFO full waits, oldest first, until a pull
frees its slot; :meth:`CellFifo.put` is the same wait as an event, for
producers written as processes.

The same part is the host's transmit queue: the NIC's descriptor ring
and the host-SAR baseline's PDU queue are each a
:class:`~repro.nic.descriptors.DescriptorRing`, a ``CellFifo`` that
holds descriptors instead of cells, posted with ``offer`` and taken
with ``pull``.  A pull puts the oldest stalled producer's item in
before its consumer runs, so a consumer that pulls again inside its
callback takes the items in the order they were offered.

The asymmetry is the architectural point measured by F5: the TX FIFO
converts engine speed into stalls, the RX FIFO converts engine slowness
into loss.  Occupancy is tracked time-weighted for sizing studies; it
is recorded where the level changes, so a stalled offer (the FIFO stays
full), a hand-over (it stays empty) and a pull that admits a stalled
producer (one cell out, one in) record nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.atm.cell import AtmCell
from repro.sim.core import Event, Simulator
from repro.sim.monitor import Counter, TimeWeightedStat


class CellFifo:
    """A bounded hardware cell FIFO with occupancy statistics."""

    def __init__(self, sim: Simulator, depth_cells: int, name: str = "fifo"):
        if depth_cells < 1:
            raise ValueError("FIFO depth must be >= 1 cell")
        self.sim = sim
        self.depth_cells = depth_cells
        self.name = name
        self._cells: Deque[AtmCell] = deque()
        #: Stalled producers, oldest first: the cell each one offered
        #: and the callback (with its args) that resumes it once the
        #: cell is in.
        self._waiting: Deque[
            Tuple[AtmCell, Callable[..., Any], Tuple[Any, ...]]
        ] = deque()
        #: The consumer waiting in :meth:`pull` for the next cell, if any.
        self._consumer: Optional[Callable[[AtmCell], None]] = None
        #: Cells accepted (queued or handed straight to the consumer).
        self.cells_in = 0
        #: Cells taken out by the consumer.
        self.cells_out = 0
        #: Most cells ever queued at once.
        self.peak_occupancy = 0
        self.occupancy = TimeWeightedStat(sim.now, 0)
        self.overflows = Counter(f"{name}.overflow")
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.
        self.trace = sim.trace

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def is_full(self) -> bool:
        return len(self._cells) >= self.depth_cells

    # -- producer side ------------------------------------------------------

    def offer(
        self, cell: AtmCell, resume: Callable[..., Any], *args: Any
    ) -> bool:
        """Blocking push by callback (TX side).

        Returns True when the cell went in at once; the producer carries
        on in the same instant.  False means the FIFO is full: the cell
        waits behind earlier stalled producers, and ``resume(*args)`` is
        called once a pull has freed its slot and the cell is in.
        """
        consumer = self._consumer
        if consumer is not None:
            # Through the empty FIFO to the waiting consumer, inline
            # here and in try_put: one of the two runs for most cells.
            self._consumer = None
            self.cells_in += 1
            self.cells_out += 1
            if self.trace is not None:
                self._trace_hand_over(cell)
            consumer(cell)
            return True
        if len(self._cells) < self.depth_cells:
            self._accept(cell)
            return True
        self._waiting.append((cell, resume, args))
        return False

    def put(self, cell: AtmCell) -> Event:
        """Blocking push for a process: the event fires once the cell is in."""
        accepted = Event(self.sim)
        if self.offer(cell, accepted.trigger):
            accepted.trigger(None)
        return accepted

    def try_put(self, cell: AtmCell) -> bool:
        """Non-blocking push (RX side): False means the cell was dropped."""
        consumer = self._consumer
        if consumer is not None:
            self._consumer = None
            self.cells_in += 1
            self.cells_out += 1
            if self.trace is not None:
                self._trace_hand_over(cell)
            consumer(cell)
            return True
        if len(self._cells) < self.depth_cells:
            self._accept(cell)
            return True
        self.overflows.increment()
        if self.trace is not None:
            self.trace.emit(
                "cell.drop", actor=self.name, cell=cell,
                reason="fifo_overflow",
            )
        return False

    def _accept(self, cell: AtmCell) -> None:
        cells = self._cells
        cells.append(cell)
        self.cells_in += 1
        occupancy = len(cells)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        self.occupancy.record(self.sim._now, occupancy)
        if self.trace is not None:
            self.trace.emit(
                "fifo.enq", actor=self.name, cell=cell, occupancy=occupancy,
            )

    def _trace_hand_over(self, cell: AtmCell) -> None:
        """Trace *cell* passing through the empty FIFO to its consumer."""
        self.trace.emit("fifo.enq", actor=self.name, cell=cell, occupancy=0)
        self.trace.emit("fifo.deq", actor=self.name, cell=cell, occupancy=0)

    # -- consumer side ---------------------------------------------------------

    def pull(self, consumer: Callable[[AtmCell], None]) -> None:
        """Call ``consumer(cell)`` with the next cell, with no event.

        The callback path of a single consumer (the framer, the RX
        engine): a queued cell is taken at once; from an empty FIFO the
        next push or offer hands its cell straight over.  Taking a cell
        admits the oldest stalled producer, if any, which resumes after
        the consumer has its cell.
        """
        cells = self._cells
        if not cells:
            self._consumer = consumer
            return
        cell = cells.popleft()
        self.cells_out += 1
        if not self._waiting:
            occupancy = len(cells)
            self.occupancy.record(self.sim._now, occupancy)
            if self.trace is not None:
                self.trace.emit(
                    "fifo.deq", actor=self.name, cell=cell, occupancy=occupancy,
                )
            consumer(cell)
            return
        # One cell out, one in: the level holds, so nothing is recorded.
        admitted, resume, args = self._waiting.popleft()
        cells.append(admitted)
        self.cells_in += 1
        if self.trace is not None:
            occupancy = len(cells)
            self.trace.emit(
                "fifo.deq", actor=self.name, cell=cell, occupancy=occupancy,
            )
            self.trace.emit(
                "fifo.enq", actor=self.name, cell=admitted, occupancy=occupancy,
            )
        consumer(cell)
        resume(*args)

    def try_get(self) -> Optional[AtmCell]:
        """Non-blocking pop; None when empty."""
        if not self._cells:
            return None
        taken: List[AtmCell] = []
        self.pull(taken.append)
        return taken[0]

    @property
    def fill_fraction(self) -> float:
        """Instantaneous occupancy as a fraction of depth (backpressure)."""
        return len(self._cells) / self.depth_cells

    @property
    def cells_offered(self) -> int:
        """Everything pushed at the FIFO: accepted plus overflowed.

        ``cells_in`` counts only *accepted* cells (a rejected ``try_put``
        never reaches the accepted ledger), so the two buckets are
        disjoint and this sum never double-counts a dropped cell.
        """
        return self.cells_in + self.overflows.count

    @property
    def loss_ratio(self) -> float:
        offered = self.cells_offered
        return self.overflows.count / offered if offered else 0.0

"""Usage parameter control: GCRA policing and leaky-bucket shaping.

The Generic Cell Rate Algorithm (I.371) in its virtual-scheduling form:
a cell conforms if it arrives no earlier than ``TAT - tau`` where TAT is
the theoretical arrival time advanced by the increment ``T = 1/rate`` per
conforming cell, and ``tau`` is the tolerance.  The verdict is decided on
the exact rational values of the float inputs, so a cell arriving exactly
at ``TAT - tau`` conforms however the float sum would have rounded.

The era's host interfaces had to *shape* transmit traffic to the VC's
contract so the network's policer would not mark/drop -- the paper's
transmit engine paces cell emission, and :class:`LeakyBucketShaper` is
the reference implementation the NIC's pacing is tested against.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Deque, Optional

from repro.atm.cell import AtmCell
from repro.atm.link import CellSink
from repro.sim.core import Simulator
from repro.sim.monitor import Counter


class Gcra:
    """Virtual-scheduling GCRA(T, tau) conformance checker.

    Two UPC actions are supported for violating cells (I.371 gives the
    operator the choice): *drop* (the default -- :meth:`police` returns
    None) or *tag* (``tag_nonconforming=True`` -- the cell survives with
    CLP set to 1, so a downstream output port under pressure discards it
    first; see :class:`repro.atm.mux.OutputPort`).
    """

    def __init__(
        self,
        increment: float,
        tolerance: float = 0.0,
        tag_nonconforming: bool = False,
    ) -> None:
        if increment <= 0:
            raise ValueError("GCRA increment T must be positive")
        if tolerance < 0:
            raise ValueError("GCRA tolerance tau must be >= 0")
        self.increment = increment
        self.tolerance = tolerance
        self.tag_nonconforming = tag_nonconforming
        self._increment = Fraction(increment)
        self._tolerance = Fraction(tolerance)
        #: Theoretical arrival time, kept exact (floats are dyadic
        #: rationals, so the sums stay small).
        self._tat: Optional[Fraction] = None
        self.conforming = 0
        self.violating = 0
        #: Violating cells passed on with CLP=1 (tag mode only).
        self.tagged = 0

    @classmethod
    def for_rate(
        cls,
        cells_per_second: float,
        tolerance: float = 0.0,
        tag_nonconforming: bool = False,
    ) -> "Gcra":
        """GCRA policing a peak cell rate."""
        if cells_per_second <= 0:
            raise ValueError("cell rate must be positive")
        return cls(1.0 / cells_per_second, tolerance, tag_nonconforming)

    def conforms(self, arrival_time: float) -> bool:
        """Check one arrival, updating state only for conforming cells."""
        arrival = Fraction(arrival_time)
        if self._tat is None or arrival >= self._tat:
            # Early TAT (link idle): restart from this arrival.
            self._tat = arrival + self._increment
            self.conforming += 1
            return True
        if arrival >= self._tat - self._tolerance:
            self._tat += self._increment
            self.conforming += 1
            return True
        self.violating += 1
        return False

    def police(self, cell: AtmCell, arrival_time: float) -> Optional[AtmCell]:
        """Apply the UPC action to one arriving cell.

        Conforming cells come back unchanged.  Violating cells come
        back CLP-tagged in tag mode, or as None (drop) otherwise.
        """
        if self.conforms(arrival_time):
            return cell
        if not self.tag_nonconforming:
            return None
        self.tagged += 1
        if cell.clp:
            return cell
        tagged = cell.with_header(clp=1)
        tagged.meta.update(cell.meta)
        return tagged

    @property
    def violation_ratio(self) -> float:
        total = self.conforming + self.violating
        return self.violating / total if total else 0.0


class LeakyBucketShaper:
    """Shapes a cell stream to a peak cell rate before a downstream sink.

    Cells offered faster than the contract are queued (up to
    *queue_cells*, then dropped) and released one per increment.  Unlike
    the policer, the shaper *delays* rather than discards -- it is what a
    transmit path does to stay conforming.
    """

    def __init__(
        self,
        sim: Simulator,
        cells_per_second: float,
        sink: CellSink,
        queue_cells: Optional[int] = None,
        name: str = "shaper",
    ) -> None:
        if cells_per_second <= 0:
            raise ValueError("cell rate must be positive")
        if queue_cells is not None and queue_cells < 1:
            raise ValueError("queue_cells must be >= 1 or None")
        self.sim = sim
        self.increment = 1.0 / cells_per_second
        self.sink = sink
        self.queue_cells = queue_cells
        self.name = name
        self._queue: Deque[AtmCell] = deque()
        self._next_release = 0.0
        self._release_pending = False
        self.shaped = Counter(f"{name}.shaped")
        self.dropped = Counter(f"{name}.dropped")

    def offer(self, cell: AtmCell) -> bool:
        """Submit a cell for shaping; False if the shaper queue overflowed."""
        if self.queue_cells is not None and len(self._queue) >= self.queue_cells:
            self.dropped.increment()
            return False
        self._queue.append(cell)
        if not self._release_pending:
            self._schedule_release()
        return True

    receive_cell = offer

    def _schedule_release(self) -> None:
        now = self.sim.now
        release_at = max(now, self._next_release)
        self._release_pending = True
        self.sim.schedule_call(release_at - now, self._release_one)

    def _release_one(self) -> None:
        self._release_pending = False
        if not self._queue:
            return
        cell = self._queue.popleft()
        self._next_release = max(self.sim.now, self._next_release) + self.increment
        self.shaped.increment()
        receive = getattr(self.sink, "receive_cell", None)
        if receive is not None:
            receive(cell)
        else:
            self.sink(cell)
        if self._queue:
            self._schedule_release()

    @property
    def backlog(self) -> int:
        return len(self._queue)

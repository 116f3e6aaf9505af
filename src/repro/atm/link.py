"""Physical links: serialization timing, propagation, loss injection.

A link is characterised by its *payload rate* -- the bit rate left for
cells after physical-layer framing overhead.  The presets carry the
numbers the 1991 host interface targeted:

- TAXI-class 100 Mb/s (the FDDI PMD many early ATM LANs borrowed),
- SONET STS-3c: 155.52 Mb/s line, 149.76 Mb/s payload,
- SONET STS-12c: 622.08 Mb/s line, 599.04 Mb/s payload,
- DS3: 44.736 Mb/s with PLCP framing (~40.7 Mb/s of cells).

The cell slot time of a link -- 53 bytes at payload rate -- is *the*
reference quantity of the paper's analysis: a protocol engine keeps up
with the link exactly when its per-cell service time stays below the
slot time (2.83 us at STS-3c, 0.71 us at STS-12c).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Any, Callable, Optional, Tuple, Union

from repro.atm.cell import CELL_SIZE, AtmCell
from repro.atm.errors import LossModel, NoLoss
from repro.sim.core import Simulator
from repro.sim.monitor import Counter

CellSink = Union[Callable[[AtmCell], None], "SupportsReceiveCell"]

class SupportsReceiveCell:
    """Structural interface: anything with ``receive_cell(cell)``."""

    def receive_cell(self, cell: AtmCell) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class LinkSpec:
    """Static description of a physical link type."""

    name: str
    line_rate_bps: float
    payload_rate_bps: float

    def __post_init__(self) -> None:
        if not self.payload_rate_bps > 0:
            raise ValueError("payload rate must be positive")
        if not self.payload_rate_bps <= self.line_rate_bps:
            raise ValueError("payload rate cannot exceed line rate")

    @property
    def cell_time(self) -> float:
        """Seconds to serialize one 53-byte cell at payload rate."""
        return (CELL_SIZE * 8) / self.payload_rate_bps

    @property
    def cell_rate(self) -> float:
        """Cells per second the link can carry."""
        return self.payload_rate_bps / (CELL_SIZE * 8)

    @property
    def effective_user_rate_bps(self) -> float:
        """Bit rate available to 48-byte cell payloads (the ATM tax)."""
        return self.payload_rate_bps * 48 / CELL_SIZE


TAXI_100 = LinkSpec("TAXI-100", 125e6, 100e6)
STS3C_155 = LinkSpec("STS-3c", 155.52e6, 149.76e6)
STS12C_622 = LinkSpec("STS-12c", 622.08e6, 599.04e6)
DS3_45 = LinkSpec("DS3", 44.736e6, 40.704e6)


class PhysicalLink:
    """A unidirectional cell pipe with serialization and propagation.

    ``send(cell, then, *args)`` calls ``then(*args)`` when the cell has
    finished serializing (i.e. when the sender may reuse its transmit
    machinery); the cell is delivered to *sink* one propagation delay
    later, unless the loss model eats it.  Cells serialize strictly in
    order at the link's cell slot time; idle slots are implicit.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: LinkSpec,
        sink: Optional[CellSink] = None,
        propagation_delay: float = 0.0,
        loss_model: Optional[LossModel] = None,
        error_model=None,
        name: str = "",
    ) -> None:
        if not propagation_delay >= 0:
            raise ValueError("propagation delay must be >= 0")
        self.sim = sim
        self.spec = spec
        self.connect(sink)
        self.propagation_delay = propagation_delay
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        #: Optional corruption hook (``maybe_corrupt(cell) -> cell``,
        #: e.g. :class:`~repro.atm.errors.BitErrorModel`): applied to
        #: every cell that survives the loss model, modelling payload or
        #: header bit errors on the wire.
        self.error_model = error_model
        self.name = name or f"link-{spec.name}"
        self._cell_time = spec.cell_time
        self._next_free = 0.0
        self._busy_time = 0.0
        self.cells_sent = Counter(f"{self.name}.sent")
        self.cells_delivered = Counter(f"{self.name}.delivered")
        self.cells_lost = Counter(f"{self.name}.lost")
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.
        self.trace = sim.trace
        # Bound once: every cell's wire-out entry carries this object.
        self._then_wire_out = self._wire_out
        sim.components.append(self)

    @property
    def loss_model(self) -> LossModel:
        """The loss model every sent cell passes through."""
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model: LossModel) -> None:
        self._loss_model = model
        #: ``model.should_drop``, or None for the ideal channel, which
        #: then costs no call per cell.
        self._should_drop: Optional[Callable[[AtmCell, float], bool]] = (
            None if isinstance(model, NoLoss) else model.should_drop
        )

    def connect(self, sink: Optional[CellSink]) -> None:
        """Attach (or replace) the receiving end."""
        self.sink = sink
        #: The sink's ``receive_cell``, or the sink itself when it is a
        #: plain callable: resolved here, not per cell.
        self._receive: Optional[Callable[[AtmCell], None]] = getattr(
            sink, "receive_cell", sink
        )

    def send(
        self, cell: AtmCell, then: Optional[Callable[..., Any]] = None, *args: Any
    ) -> None:
        """Serialize *cell*; at wire-out time call ``then(*args)``, if given.

        Wire-out is one bare queue entry per cell, pushed here.  With
        zero propagation delay that entry also delivers the cell, before
        ``then`` runs; a positive delay queues the same delivery body as
        an entry of its own, first.
        """
        sim = self.sim
        now = sim._now
        cell_time = self._cell_time
        start = self._next_free if self._next_free > now else now
        done = start + cell_time
        self._next_free = done
        self._busy_time += cell_time
        self.cells_sent.count += 1
        if self.trace is not None:
            self.trace.emit("link.cell.sent", actor=self.name, cell=cell)

        deliver: Optional[AtmCell] = cell
        drop = self._should_drop
        if drop is not None and drop(cell, now):
            deliver = None
            self.cells_lost.increment()
            if self.trace is not None:
                self.trace.emit(
                    "cell.drop", actor=self.name, cell=cell,
                    reason="link_lost",
                )
        elif self.error_model is not None:
            deliver = self.error_model.maybe_corrupt(cell)
        # The body of Simulator.schedule_call, inlined: a NORMAL entry's
        # key is its sequence number.
        sequence = sim._sequence
        queue = sim._queue
        if deliver is not None and self.propagation_delay > 0:
            sequence += 1
            heappush(
                queue,
                (
                    now + ((done - now) + self.propagation_delay),
                    sequence,
                    self._then_wire_out,
                    (deliver, None, ()),
                ),
            )
            deliver = None
        sequence += 1
        sim._sequence = sequence
        heappush(
            queue,
            (now + (done - now), sequence, self._then_wire_out, (deliver, then, args)),
        )

    def _wire_out(
        self,
        cell: Optional[AtmCell],
        then: Optional[Callable[..., Any]],
        args: Tuple[Any, ...],
    ) -> None:
        """Deliver *cell* (if any) to the sink, then run ``then(*args)``."""
        if cell is not None:
            self.cells_delivered.count += 1
            if self.trace is not None:
                self.trace.emit(
                    "link.cell.delivered", actor=self.name, cell=cell
                )
            receive = self._receive
            if receive is None:
                raise RuntimeError(f"{self.name} has no sink attached")
            receive(cell)
        if then is not None:
            then(*args)

    @property
    def backlog_time(self) -> float:
        """Seconds of queued serialization work ahead of a new cell."""
        return max(0.0, self._next_free - self.sim.now)

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of elapsed time the link spent serializing cells."""
        end = self.sim.now if now is None else now
        if end <= 0:
            return 0.0
        return min(1.0, self._busy_time / end)

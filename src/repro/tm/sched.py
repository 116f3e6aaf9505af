"""Per-VC weighted-round-robin transmit scheduling.

The seed transmit path serves PDUs in strict descriptor-ring order, so
one chatty VC starves its neighbours behind it in the ring.  This
module adds the classic fix: per-VC queues drained by a weighted round
robin, so many VCs share the adaptor (and hence the link) in
proportion to configured weights rather than arrival order.

Two pieces:

- :class:`WeightedRoundRobin` -- the pure scheduling discipline, a
  plain data structure with ``push``/``pop`` and no simulator
  dependencies, so its invariants (work conservation, weight
  proportionality) are directly property-testable;
- :class:`WrrTxQueue` -- the sim-side adaptor: a pump pulls the
  host's :class:`~repro.nic.descriptors.DescriptorRing` into per-VC
  queues, one descriptor per entry, and re-exposes the ring's
  ``pull()`` contract, so :class:`~repro.nic.tx.TxEngine` consumes WRR
  order unchanged.

Note the flow-control trade documented in docs/TRAFFIC.md: the pump
empties the bounded ring eagerly, so ring backpressure no longer
bounds how far the host runs ahead -- per-VC queues are unbounded, as
in the era's list-per-VC adaptor firmware.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.sim.core import Simulator


class WeightedRoundRobin:
    """Credit-based weighted round robin over named FIFO queues.

    Each backlogged queue is granted ``weight`` credits per cycle; a
    ``pop`` serves one item from the current queue and consumes one
    credit, moving on when the queue's credits (or items) run out.
    The discipline is work-conserving -- ``pop`` returns an item
    whenever any queue is non-empty -- and, under continuous backlog,
    serves queues in proportion to their weights.
    """

    def __init__(self) -> None:
        self._queues: Dict[Any, Deque[Any]] = {}
        self._weights: Dict[Any, int] = {}
        self._credits: Dict[Any, int] = {}
        self._order: List[Any] = []
        self._cursor = 0
        self._size = 0
        #: Items served per queue (for fairness verification).
        self.served: Dict[Any, int] = {}

    def __contains__(self, key: Any) -> bool:
        return key in self._queues

    def __len__(self) -> int:
        return self._size

    @property
    def keys(self) -> List[Any]:
        return list(self._order)

    def add_queue(self, key: Any, weight: int = 1) -> None:
        """Register a queue; re-adding just updates its weight."""
        if weight < 1:
            raise ValueError("WRR weight must be >= 1")
        if key not in self._queues:
            self._queues[key] = deque()
            self._order.append(key)
            self._credits[key] = 0
            self.served[key] = 0
        self._weights[key] = int(weight)

    def weight_of(self, key: Any) -> int:
        return self._weights[key]

    def push(self, key: Any, item: Any) -> None:
        """Enqueue *item* on *key*'s queue (auto-registers at weight 1)."""
        if key not in self._queues:
            self.add_queue(key)
        self._queues[key].append(item)
        self._size += 1

    def pop(self) -> Optional[Any]:
        """Serve the next item in WRR order; None when all queues idle."""
        if self._size == 0:
            return None
        n = len(self._order)
        scanned = 0
        while True:
            key = self._order[self._cursor]
            queue = self._queues[key]
            if queue and self._credits[key] > 0:
                self._credits[key] -= 1
                if self._credits[key] == 0:
                    self._cursor = (self._cursor + 1) % n
                self._size -= 1
                self.served[key] += 1
                return queue.popleft()
            self._cursor = (self._cursor + 1) % n
            scanned += 1
            if scanned >= n:
                # Full cycle without service: start a new round by
                # granting every backlogged queue its weight in credits.
                for candidate in self._order:
                    if self._queues[candidate]:
                        self._credits[candidate] = self._weights[candidate]
                scanned = 0


class WrrTxQueue:
    """WRR front end for the transmit engine's descriptor source.

    Interposes between the host's descriptor ring and the engine::

        queue = WrrTxQueue(sim, nic.tx_ring, weight_of=weights.get)
        nic.tx_engine.ring = queue
        queue.start()

    (or just call :func:`install_wrr`).  ``weight_of`` maps a
    :class:`~repro.atm.addressing.VcAddress` to its integer weight;
    unknown VCs default to weight 1.
    """

    def __init__(
        self,
        sim: Simulator,
        ring,
        weight_of: Optional[Callable[[Any], Optional[int]]] = None,
        name: str = "wrr",
    ) -> None:
        self.sim = sim
        self.ring = ring
        self.weight_of = weight_of
        self.name = name
        self.wrr = WeightedRoundRobin()
        #: Consumers waiting in :meth:`pull` for a descriptor, oldest first.
        self._consumers: Deque[Callable[[Any], Any]] = deque()
        self._started = False
        # Bound once: every descriptor hands on these objects.
        self._then_take = self._take
        self._then_pump = self._pump

    def __len__(self) -> int:
        return len(self.wrr)

    def start(self) -> None:
        """Start draining the ring (idempotent)."""
        if not self._started:
            self._started = True
            self.ring.pull(self._then_take)

    def _take(self, descriptor) -> None:
        # The pump queues the descriptor from an entry of its own.  The
        # ring's pull resumes the producer it admitted only after this
        # callback returns, so a pump that pulled again in here would
        # resume later producers first (last admitted, first resumed).
        self.sim.schedule_call(0.0, self._then_pump, descriptor)

    def _pump(self, descriptor) -> None:
        key = descriptor.vc
        if key not in self.wrr:
            weight = 1
            if self.weight_of is not None:
                configured = self.weight_of(key)
                if configured is not None and configured >= 1:
                    weight = int(configured)
            self.wrr.add_queue(key, weight)
        self.wrr.push(key, descriptor)
        while self._consumers and len(self.wrr):
            self._consumers.popleft()(self.wrr.pop())
        self.ring.pull(self._then_take)

    def pull(self, consumer: Callable[[Any], Any]) -> None:
        """Call ``consumer(descriptor)`` with the next WRR descriptor.

        As the ring's ``pull``: at once when one is queued, else inside
        the pump's entry that queues the next one.
        """
        item = self.wrr.pop()
        if item is not None:
            consumer(item)
        else:
            self._consumers.append(consumer)


def install_wrr(
    nic,
    weight_of: Optional[Callable[[Any], Optional[int]]] = None,
) -> WrrTxQueue:
    """Interpose a WRR queue between *nic*'s TX ring and its engine."""
    queue = WrrTxQueue(
        nic.sim, nic.tx_ring, weight_of=weight_of, name=f"{nic.name}.wrr"
    )
    nic.tx_engine.ring = queue
    queue.start()
    return queue

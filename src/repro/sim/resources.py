"""Contention primitive: a FIFO object store.

A mailbox of descriptors between driver and adaptor is a
:class:`Store`.  Both sides work by callback -- ``offer`` and ``pull``,
like the adaptor's cell FIFOs -- and ``put``/``get`` are the same
operations as events to ``yield`` on, for processes.  Hand-offs are
strictly FIFO, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sim.core import Event, Simulator


class Store:
    """An unbounded-or-bounded FIFO buffer of Python objects.

    ``offer(item, resume, *args)`` puts *item* in, or -- when the store
    is full -- waits, oldest first, until a pull makes room and then
    calls ``resume(*args)``.  ``pull(consumer)`` calls
    ``consumer(item)`` with the oldest item, at once or, from an empty
    store, when the next item is offered.  ``put(item)`` and ``get()``
    are the same two operations as events, which fire one entry later.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "store",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        #: Consumers waiting in :meth:`pull` for an item, oldest first.
        self._consumers: Deque[Callable[[Any], Any]] = deque()
        #: Producers waiting for room: the item each one offered, and the
        #: callback (with its args) that resumes it once the item is in.
        self._putters: Deque[
            tuple[Any, Callable[..., Any], tuple[Any, ...]]
        ] = deque()
        self.total_put = 0
        self.total_got = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # -- producer side ----------------------------------------------------

    def offer(self, item: Any, resume: Callable[..., Any], *args: Any) -> bool:
        """Put *item* by callback.

        True means the item went in at once -- straight to the oldest
        waiting consumer, which has already run, or into the store --
        and the producer carries on.  False means the store is full:
        ``resume(*args)`` is called once a pull has made room and the
        item is in.
        """
        if self._consumers:
            consumer = self._consumers.popleft()
            self.total_put += 1
            self.total_got += 1
            consumer(item)
            return True
        if not self.is_full:
            self._accept(item)
            return True
        self._putters.append((item, resume, args))
        return False

    def put(self, item: Any) -> Event:
        """Offer *item*; the event fires once the store has accepted it."""
        accepted = Event(self.sim)
        if self.offer(item, accepted.trigger):
            accepted.trigger(None)
        return accepted

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: accept *item* now or return False (dropped)."""
        if self._consumers:
            consumer = self._consumers.popleft()
            self.total_put += 1
            self.total_got += 1
            consumer(item)
            return True
        if self.is_full:
            return False
        self._accept(item)
        return True

    # -- consumer side ----------------------------------------------------

    def pull(self, consumer: Callable[[Any], Any]) -> None:
        """Call ``consumer(item)`` with the oldest item, with no event.

        A stored item is taken at once; from an empty store the next
        offer hands its item straight over.  A producer whose item the
        pull admits resumes after the consumer has run.
        """
        if not self._items:
            self._consumers.append(consumer)
            return
        item = self._items.popleft()
        self.total_got += 1
        consumer(item)
        self._drain_putters()

    def get(self) -> Event:
        """The event fires with the oldest item once one exists."""
        taken = Event(self.sim)
        self.pull(taken.trigger)
        return taken

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self.total_got += 1
        self._drain_putters()
        return True, item

    def _accept(self, item: Any) -> None:
        self._items.append(item)
        self.total_put += 1
        if len(self._items) > self.peak_occupancy:
            self.peak_occupancy = len(self._items)

    def _drain_putters(self) -> None:
        while self._putters and not self.is_full:
            item, resume, args = self._putters.popleft()
            self._accept(item)
            resume(*args)

"""Contention primitive: a FIFO object store.

A mailbox of descriptors between driver and adaptor is a
:class:`Store`.  It follows the event discipline of the kernel:
``get``/``put`` return events to ``yield`` on, and hand-offs are
strictly FIFO, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, Simulator


class Store:
    """An unbounded-or-bounded FIFO buffer of Python objects.

    ``put(item)`` returns an event that fires when the item has been
    accepted (immediately unless the store is full); ``get()`` returns an
    event that fires with the next item once one is available.
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
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self.total_put = 0
        self.total_got = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Offer *item*; the event fires once the store has accepted it."""
        ev = Event(self.sim)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.trigger(item)
            ev.trigger(None)
        elif not self.is_full:
            self._accept(item)
            ev.trigger(None)
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: accept *item* now or return False (dropped)."""
        if self._getters:
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.trigger(item)
            return True
        if self.is_full:
            return False
        self._accept(item)
        return True

    def get(self) -> Event:
        """The event fires with the oldest item once one exists."""
        ev = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            ev.trigger(item)
            self._drain_putters()
        else:
            self._getters.append(ev)
        return ev

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
            ev, item = self._putters.popleft()
            self._accept(item)
            ev.trigger(None)

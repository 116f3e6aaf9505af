"""Host memory: buffer pools and allocation accounting.

The interesting property in 1991 was not capacity but *who touches the
bytes*: a host-based SAR walks every byte with the CPU, while the
offloaded architecture lets DMA move PDUs untouched.  This module keeps
the functional bookkeeping (buffers with identity and size, a pool with
high-water marks) that the OS model and the NIC descriptor rings share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Buffer:
    """A contiguous host-memory buffer holding (part of) a PDU."""

    buffer_id: int
    capacity: int
    data: bytes = b""

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("negative buffer capacity")
        if len(self.data) > self.capacity:
            raise ValueError("data exceeds buffer capacity")

    @property
    def used(self) -> int:
        return len(self.data)

    def write(self, data: bytes) -> None:
        """Replace the contents (a DMA completion, a user write)."""
        if len(data) > self.capacity:
            raise ValueError(
                f"write of {len(data)} bytes into {self.capacity}-byte buffer"
            )
        self.data = data

    def append(self, data: bytes) -> None:
        """Extend the contents (reassembly landing successive pieces)."""
        if len(self.data) + len(data) > self.capacity:
            raise ValueError("append overflows buffer")
        self.data += data


class BufferPool:
    """A fixed-size-slot allocator with occupancy statistics.

    Models the receive-buffer pool a driver pre-posts to its adaptor:
    allocation fails (returns None) when empty, which surfaces as
    receive-side PDU drops -- a real failure mode measured in F5.
    """

    def __init__(self, slot_size: int, slots: int, name: str = "pool") -> None:
        if slot_size < 1 or slots < 1:
            raise ValueError("pool needs positive slot size and count")
        self.slot_size = slot_size
        self.slots = slots
        self.name = name
        self._ids = itertools.count(1)
        self._free = slots
        self.failures = 0
        self.low_water = slots

    @property
    def free_slots(self) -> int:
        return self._free

    def allocate(self) -> Optional[Buffer]:
        """One free slot as a :class:`Buffer`, or None if exhausted."""
        if self._free == 0:
            self.failures += 1
            return None
        self._free -= 1
        if self._free < self.low_water:
            self.low_water = self._free
        return Buffer(next(self._ids), self.slot_size)

    def release(self, buffer: Buffer) -> None:
        """Return a slot to the pool."""
        if self._free >= self.slots:
            raise RuntimeError(f"pool {self.name} over-released")
        buffer.data = b""
        self._free += 1


class HostMemory:
    """Named regions of host memory with simple usage accounting."""

    def __init__(self, total_bytes: int = 64 << 20) -> None:
        if total_bytes < 1:
            raise ValueError("memory size must be positive")
        self.total_bytes = total_bytes
        self._regions: Dict[str, int] = {}

    def reserve(self, name: str, nbytes: int) -> None:
        """Carve a named region; raises if memory would oversubscribe."""
        if nbytes < 0:
            raise ValueError("negative region size")
        current = sum(self._regions.values()) - self._regions.get(name, 0)
        if current + nbytes > self.total_bytes:
            raise MemoryError(
                f"region {name!r} of {nbytes} bytes oversubscribes memory"
            )
        self._regions[name] = nbytes

    def region_size(self, name: str) -> int:
        return self._regions.get(name, 0)

    @property
    def reserved(self) -> int:
        return sum(self._regions.values())

    @property
    def available(self) -> int:
        return self.total_bytes - self.reserved

    def regions(self) -> Iterator[tuple[str, int]]:
        return iter(self._regions.items())


@dataclass
class BufferChain:
    """An mbuf-style chain of buffers representing one logical PDU."""

    buffers: List[Buffer] = field(default_factory=list)

    def add(self, buffer: Buffer) -> None:
        self.buffers.append(buffer)

    @property
    def total_bytes(self) -> int:
        return sum(b.used for b in self.buffers)

    def contiguous(self) -> bytes:
        """Linearise the chain (what a pullup/copy would produce)."""
        return b"".join(b.data for b in self.buffers)

    def __len__(self) -> int:
        return len(self.buffers)

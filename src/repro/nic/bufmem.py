"""Adaptor buffer memory: the dual-ported staging store for cells.

Every byte that crosses the interface is written into and read out of
the adaptor's buffer memory (PDU staging on transmit, reassembly on
receive), so the memory needs roughly **2x the link payload rate per
direction** of bandwidth -- the budget experiment T4 audits.

The model tracks:

- capacity in cells, with allocation per reassembly context,
- total read/write traffic, giving the required bandwidth over a run,
- the configured physical bandwidth (width x clock), giving headroom.

Timing is *not* simulated per access (the engines' cycle budgets
already include their memory handshakes); this module is the audit
ledger that proves the budgets consistent with a buildable memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.sim.core import Simulator


@dataclass(frozen=True)
class BufferMemorySpec:
    """Static description of the adaptor's cell buffer memory."""

    capacity_cells: int
    width_bytes: int = 4
    clock_hz: float = 25e6
    #: Dual-ported memory serves both ports at full rate; single-ported
    #: memory halves the effective bandwidth under concurrent access.
    dual_ported: bool = True

    def __post_init__(self) -> None:
        if self.capacity_cells < 1:
            raise ValueError("capacity must be >= 1 cell")
        if self.width_bytes < 1:
            raise ValueError("width must be >= 1 byte")
        if self.clock_hz <= 0:
            raise ValueError("memory clock must be positive")

    @property
    def port_bandwidth_bps(self) -> float:
        """Bit rate one port can sustain."""
        return self.clock_hz * self.width_bytes * 8

    @property
    def total_bandwidth_bps(self) -> float:
        """Aggregate bandwidth across ports."""
        return self.port_bandwidth_bps * (2 if self.dual_ported else 1)


class AdaptorBufferMemory:
    """Dynamic occupancy and traffic ledger for the buffer memory."""

    def __init__(
        self,
        sim: Simulator,
        spec: BufferMemorySpec,
        name: str = "bufmem",
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        self._allocated: Dict[Hashable, int] = {}
        self._used_cells = 0
        #: Traffic ledger: bytes written into and read out of the
        #: memory.  The engines add to these in their own frames.
        self.bytes_written = 0
        self.bytes_read = 0
        self.allocation_failures = 0

    # -- allocation ---------------------------------------------------------

    @property
    def used_cells(self) -> int:
        return self._used_cells

    @property
    def free_cells(self) -> int:
        return self.spec.capacity_cells - self._used_cells

    @property
    def fill_fraction(self) -> float:
        """Instantaneous occupancy as a fraction of capacity (backpressure)."""
        return self._used_cells / self.spec.capacity_cells

    def under_pressure(self, reserve_cells: int) -> bool:
        """True when free space has fallen below *reserve_cells*."""
        return self.free_cells < reserve_cells

    def allocate(self, owner: Hashable, cells: int) -> bool:
        """Reserve *cells* for *owner* (a VC context, a staging PDU),
        adding to what *owner* already holds.

        Returns False (and counts the failure) when space is short --
        the caller decides whether that drops a PDU or stalls.  The RX
        engine calls this once per cell, so the free-space test is done
        here, not through :attr:`free_cells`.
        """
        if cells < 0:
            raise ValueError("negative allocation")
        used = self._used_cells + cells
        if used > self.spec.capacity_cells:
            self.allocation_failures += 1
            return False
        allocated = self._allocated
        allocated[owner] = allocated.get(owner, 0) + cells
        self._used_cells = used
        return True

    def release(self, owner: Hashable) -> int:
        """Free everything held by *owner*; returns the cell count."""
        cells = self._allocated.pop(owner, 0)
        self._used_cells -= cells
        return cells

    def held_by(self, owner: Hashable) -> int:
        return self._allocated.get(owner, 0)

    # -- traffic ledger --------------------------------------------------------

    def required_bandwidth_bps(self, elapsed: Optional[float] = None) -> float:
        """Average memory bandwidth the run actually needed."""
        span = self.sim.now if elapsed is None else elapsed
        if span <= 0:
            return 0.0
        return (self.bytes_written + self.bytes_read) * 8 / span

    def bandwidth_headroom(self, elapsed: Optional[float] = None) -> float:
        """Available-to-required bandwidth ratio (> 1 means feasible)."""
        needed = self.required_bandwidth_bps(elapsed)
        if needed == 0:
            return float("inf")
        return self.spec.total_bandwidth_bps / needed

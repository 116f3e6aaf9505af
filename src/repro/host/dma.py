"""The adaptor's DMA engine: moves PDUs across the host bus.

DMA decouples the protocol engines from host memory: the engine queues a
transfer descriptor (a few cycles), the DMA machine arbitrates for the
bus and streams the bytes, and a completion callback/event fires when the
last word lands.  Transfers are serviced strictly in order per engine --
real adaptors had one DMA context per direction, which is what the
default two-engine wiring in :mod:`repro.nic.nic` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.host.bus import SystemBus
from repro.sim.core import Event, Simulator
from repro.sim.monitor import Counter, WelfordStat
from repro.sim.resources import Resource

@dataclass(frozen=True)
class DmaSpec:
    """Static DMA engine parameters."""

    #: Engine-side cycles to accept and launch one descriptor, expressed
    #: in seconds (already divided by the engine clock by the caller) --
    #: kept as time so host- and NIC-side users share the type.
    setup_time: float = 1e-6
    #: Extra completion-notification latency (status writeback).
    completion_time: float = 4e-7

    def __post_init__(self) -> None:
        if self.setup_time < 0 or self.completion_time < 0:
            raise ValueError("DMA times must be >= 0")


class DmaEngine:
    """One direction's DMA mover, bound to a :class:`SystemBus`."""

    def __init__(
        self,
        sim: Simulator,
        bus: SystemBus,
        spec: Optional[DmaSpec] = None,
        name: str = "dma",
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.spec = spec if spec is not None else DmaSpec()
        self.name = name
        self._channel = Resource(sim, capacity=1, name=f"{name}.channel")
        self.transfers = Counter(f"{name}.transfers")
        self.bytes_moved = Counter(f"{name}.bytes")
        self.latency = WelfordStat()
        #: Observability hook (repro.obs): a TraceRecorder, or None.
        self.trace = None

    def transfer(self, nbytes: int) -> Event:
        """Event firing when *nbytes* have fully moved across the bus."""
        return self.sim.process(self._transfer(nbytes))

    def _transfer(self, nbytes: int):
        if nbytes < 0:
            raise ValueError("negative DMA size")
        started = self.sim.now
        grant = self._channel.request()
        yield grant
        if self.trace is not None:
            self.trace.emit("dma.start", actor=self.name, bytes=nbytes)
        # Setup, arbitrated bus walk (the rx and tx engines share the
        # bus), completion writeback.
        yield self.sim.timeout(self.spec.setup_time)
        if nbytes > 0:
            yield self.bus.transfer(nbytes, master=self.name)
        yield self.sim.timeout(self.spec.completion_time)
        self._channel.release(grant)
        self.transfers.increment()
        self.bytes_moved.increment(nbytes)
        self.latency.add(self.sim.now - started)
        if self.trace is not None:
            self.trace.emit(
                "dma.done", actor=self.name, bytes=nbytes,
                latency=self.sim.now - started,
            )
        return nbytes

    @property
    def backlog(self) -> int:
        """Transfers queued behind the current one."""
        return self._channel.queue_length

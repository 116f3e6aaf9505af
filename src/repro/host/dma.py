"""The adaptor's DMA engine: moves PDUs across the host bus.

DMA decouples the protocol engines from host memory: the engine queues a
transfer descriptor (a few cycles), the DMA machine arbitrates for the
bus and streams the bytes, and a completion event fires when the last
word lands.  Transfers are serviced strictly in order per engine --
real adaptors had one DMA context per direction, which is what the
default two-engine wiring in :mod:`repro.nic.nic` reproduces.  The
engine is a small state machine driven by callbacks: setup, the bus
transaction, completion writeback, then the next queued transfer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.host.bus import SystemBus
from repro.sim.core import Event, Simulator
from repro.sim.monitor import Counter, WelfordStat

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
        #: Transfers queued behind the one in flight, each as (bytes,
        #: completion event, time requested).
        self._waiting: Deque[tuple[int, Event, float]] = deque()
        self._active = False
        self.transfers = Counter(f"{name}.transfers")
        self.bytes_moved = Counter(f"{name}.bytes")
        self.latency = WelfordStat()
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.
        self.trace = sim.trace

    def transfer(self, nbytes: int) -> Event:
        """Event firing when *nbytes* have fully moved across the bus."""
        if nbytes < 0:
            raise ValueError("negative DMA size")
        done = Event(self.sim)
        if self._active:
            self._waiting.append((nbytes, done, self.sim.now))
        else:
            self._start(nbytes, done, self.sim.now)
        return done

    def _start(self, nbytes: int, done: Event, started: float) -> None:
        self._active = True
        if self.trace is not None:
            self.trace.emit("dma.start", actor=self.name, bytes=nbytes)
        # Setup, arbitrated bus walk (the rx and tx engines share the
        # bus), completion writeback.
        self.sim.schedule_call(
            self.spec.setup_time, self._set_up, nbytes, done, started
        )

    def _set_up(self, nbytes: int, done: Event, started: float) -> None:
        if nbytes > 0:
            self.bus.transfer(nbytes, master=self.name).add_callback(
                lambda _moved: self._write_back(nbytes, done, started)
            )
        else:
            self._write_back(nbytes, done, started)

    def _write_back(self, nbytes: int, done: Event, started: float) -> None:
        self.sim.schedule_call(
            self.spec.completion_time, self._finish, nbytes, done, started
        )

    def _finish(self, nbytes: int, done: Event, started: float) -> None:
        self.transfers.increment()
        self.bytes_moved.increment(nbytes)
        self.latency.add(self.sim.now - started)
        if self.trace is not None:
            self.trace.emit(
                "dma.done", actor=self.name, bytes=nbytes,
                latency=self.sim.now - started,
            )
        done.trigger(nbytes)
        if self._waiting:
            self._start(*self._waiting.popleft())
        else:
            self._active = False

    @property
    def backlog(self) -> int:
        """Transfers queued behind the current one."""
        return len(self._waiting)

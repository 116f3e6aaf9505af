"""The adaptor's DMA engine: moves PDUs across the host bus.

DMA decouples the protocol engines from host memory: the engine queues a
transfer descriptor (a few cycles), the DMA machine arbitrates for the
bus and streams the bytes, and the requester's continuation runs when
the completion status is written back.  Transfers are serviced strictly
in order per engine -- real adaptors had one DMA context per direction,
which is what the default two-engine wiring in :mod:`repro.nic.nic`
reproduces.  The engine is a small state machine driven by callbacks:
setup, the bus transaction (whose last burst starts the writeback), the
completion writeback, which calls the requester back and then sets up
the next queued transfer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from repro.host.bus import SystemBus
from repro.sim.core import Simulator
from repro.sim.monitor import Counter

#: One transfer: bytes, the continuation and its args, time requested.
_Transfer = tuple[int, Callable[..., Any], tuple[Any, ...], float]


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
        #: Transfers queued behind the one in flight, oldest first.
        self._waiting: Deque[_Transfer] = deque()
        self._active = False
        self.transfers = Counter(f"{name}.transfers")
        self.bytes_moved = Counter(f"{name}.bytes")
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.
        self.trace = sim.trace
        # Each step the kernel or the bus calls back, bound once: every
        # transfer hands on these objects.
        self._then_set_up = self._set_up
        self._then_write_back = self._write_back
        self._then_finish = self._finish

    def transfer_then(
        self, nbytes: int, then: Callable[..., Any], *args: Any
    ) -> None:
        """Move *nbytes* across the bus, then call ``then(*args)``."""
        if nbytes < 0:
            raise ValueError("negative DMA size")
        transfer = (nbytes, then, args, self.sim._now)
        if self._active:
            self._waiting.append(transfer)
        else:
            self._start(transfer)

    def _start(self, transfer: _Transfer) -> None:
        self._active = True
        if self.trace is not None:
            self.trace.emit("dma.start", actor=self.name, bytes=transfer[0])
        # Setup, arbitrated bus walk (the rx and tx engines share the
        # bus), completion writeback.
        self.sim.schedule_call(self.spec.setup_time, self._then_set_up, transfer)

    def _set_up(self, transfer: _Transfer) -> None:
        nbytes = transfer[0]
        if nbytes > 0:
            self.bus.transfer_then(nbytes, self.name, self._then_write_back, transfer)
        else:
            self._write_back(transfer)

    def _write_back(self, transfer: _Transfer) -> None:
        self.sim.schedule_call(self.spec.completion_time, self._then_finish, transfer)

    def _finish(self, transfer: _Transfer) -> None:
        nbytes, then, args, started = transfer
        self.transfers.count += 1
        self.bytes_moved.count += nbytes
        if self.trace is not None:
            self.trace.emit(
                "dma.done", actor=self.name, bytes=nbytes,
                latency=self.sim._now - started,
            )
        then(*args)
        if self._waiting:
            self._start(self._waiting.popleft())
        else:
            self._active = False

    @property
    def backlog(self) -> int:
        """Transfers queued behind the current one."""
        return len(self._waiting)

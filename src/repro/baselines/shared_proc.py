"""Baseline (c): a single protocol processor shared by both directions.

Halving the part count is tempting, but transmit and receive then
contend for the same instruction stream.  Under bidirectional load the
shared engine's effective per-direction rate halves and -- worse --
receive work queues behind transmit bursts, turning engine contention
into receive-FIFO overflow (cells lost), which the dual-engine design
never exhibits.  Experiment T5 quantifies this.

Implementation: a :class:`SharedEngineClock` serves both pipelines'
``work`` calls from one FIFO of callbacks, as
:class:`~repro.host.cpu.HostCpu` serves its callers;
:func:`share_engine` rebinds both of an interface's pipelines onto one
such clock.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Tuple

from repro.nic.costs import Charge, EngineSpec
from repro.nic.engine import EngineClock
from repro.nic.nic import HostNetworkInterface
from repro.sim.core import Simulator


class SharedEngineClock(EngineClock):
    """An engine clock whose callers contend for one instruction stream.

    ``work`` runs at once when the stream is idle, else queues behind
    the item in service; each item is booked (ledger, stall, trace) and
    queued by the base clock's ``work`` when it starts, so the ledger
    holds only work the stream has begun.  Program order
    within each pipeline still holds; across pipelines the arbitration
    is FIFO.
    """

    def __init__(self, sim: Simulator, spec: EngineSpec, name: str = "shared-engine"):
        super().__init__(sim, spec, name)
        #: Items waiting for the stream, oldest first.
        self._waiting: Deque[
            Tuple[float, Charge, Callable[..., Any], Tuple[Any, ...]]
        ] = deque()
        self._running = False
        self._granted = 0
        self._total_wait = 0.0
        # Bound once: every item's completion entry carries this object.
        self._then_finish = self._finish

    def work(self, charge: Charge, then: Callable[..., Any], *args: Any) -> None:
        if self._running:
            self._waiting.append((self.sim.now, charge, then, args))
        else:
            self._start(self.sim.now, charge, then, args)

    def _start(
        self,
        requested: float,
        charge: Charge,
        then: Callable[..., Any],
        args: Tuple[Any, ...],
    ) -> None:
        self._running = True
        self._granted += 1
        self._total_wait += self.sim.now - requested
        super().work(charge, self._then_finish, then, args)

    def _finish(self, then: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        # The next item takes the stream before the finished caller
        # carries on, so a caller's next charge queues behind it.
        if self._waiting:
            self._start(*self._waiting.popleft())
        else:
            self._running = False
        then(*args)

    @property
    def contention_wait(self) -> float:
        """Mean time work items queued for the shared stream."""
        return self._total_wait / self._granted if self._granted else 0.0


def share_engine(
    nic: HostNetworkInterface, spec: EngineSpec | None = None
) -> SharedEngineClock:
    """Rebind *nic*'s TX and RX pipelines onto one shared engine.

    Must be called before the interface starts.  Returns the shared
    clock for inspection.  The engine spec defaults to the interface's
    TX engine spec.
    """
    engine_spec = spec if spec is not None else nic.config.tx_engine
    shared = SharedEngineClock(
        nic.sim, engine_spec, name=f"{nic.name}.shared-engine"
    )
    nic.tx_clock = shared
    nic.rx_clock = shared
    nic.tx_engine.clock = shared
    nic.rx_engine.clock = shared
    return shared

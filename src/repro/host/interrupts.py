"""Host interrupt delivery and its cost model.

Interrupts were the era's great hidden tax: several hundred CPU cycles
of context save/restore and dispatch before the handler's first useful
instruction.  Because an un-offloaded interface interrupts per *cell*
while the paper's architecture interrupts per *PDU* (or less, with
coalescing), the interrupt model is load-bearing for experiment T3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.host.cpu import HostCpu
from repro.sim.core import Simulator
from repro.sim.monitor import Counter

#: Raises merged into one delivery: each one's handler cycles, handler,
#: and continuation with its args.
_Batch = list[
    tuple[float, Optional[Callable[[], None]], Callable[..., Any], tuple[Any, ...]]
]


def _unawaited() -> None:
    """The continuation of a raise that nothing waits on."""


@dataclass(frozen=True)
class InterruptSpec:
    """Static interrupt cost parameters (host CPU cycles)."""

    #: Cycles from assertion to the handler's first instruction
    #: (pipeline drain, vector fetch, register save).
    entry_cycles: int = 200
    #: Cycles to unwind after the handler body returns.
    exit_cycles: int = 150
    #: Coalescing window in seconds: interrupts raised while one is
    #: pending within the window merge into a single delivery.  Zero
    #: disables coalescing.
    coalesce_window: float = 0.0

    def __post_init__(self) -> None:
        if self.entry_cycles < 0 or self.exit_cycles < 0:
            raise ValueError("interrupt cycle costs must be >= 0")
        if self.coalesce_window < 0:
            raise ValueError("coalesce window must be >= 0")


class InterruptController:
    """Delivers device interrupts onto the host CPU.

    ``raise_interrupt_then(handler_cycles, handler, then, *args)``
    charges the CPU for entry + handler + exit, invokes *handler* (a
    plain callable, or None) when the handler body runs, and calls
    ``then(*args)`` in that same entry, after every handler of the
    delivery.  With a
    coalescing window configured, back-to-back raises merge: one
    delivery, one entry/exit, the sum of handler bodies -- how real
    drivers amortised per-PDU completions.  Without a window, raises
    from the same queue entry still merge: the line is sampled once
    that entry is done.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: HostCpu,
        spec: Optional[InterruptSpec] = None,
        name: str = "intc",
    ) -> None:
        self.sim = sim
        self.cpu = cpu
        self.spec = spec if spec is not None else InterruptSpec()
        self.name = name
        self.raised = Counter(f"{name}.raised")
        self.delivered = Counter(f"{name}.delivered")
        self.spurious = Counter(f"{name}.spurious")
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.
        self.trace = sim.trace
        self._pending: _Batch = []
        self._delivery_scheduled = False
        # Each step the kernel or the CPU calls back, bound once: every
        # delivery hands on these objects.
        self._then_deliver = self._deliver
        self._then_handled = self._handled

    def raise_interrupt_then(
        self,
        handler_cycles: float,
        handler: Optional[Callable[[], None]],
        then: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Assert the device interrupt; ``then(*args)`` runs once it is
        handled."""
        self.raised.count += 1
        if self.trace is not None:
            self.trace.emit("irq.raised", actor=self.name)
        self._pending.append((handler_cycles, handler, then, args))
        if not self._delivery_scheduled:
            self._delivery_scheduled = True
            if self.spec.coalesce_window > 0:
                self.sim.schedule_call(self.spec.coalesce_window, self._then_deliver)
            else:
                self.sim._call_urgent(self._then_deliver)

    def inject_spurious(self, handler_cycles: float = 0.0) -> None:
        """Fault-injection hook: a spurious assertion of the device line.

        The handler body finds no work (*handler_cycles* models its
        status-register poll), but entry/exit and dispatch are paid in
        full -- an interrupt storm steals host CPU without moving a
        byte.  Delivered through the normal coalescing machinery;
        nothing waits on it.
        """
        self.spurious.increment()
        self.raise_interrupt_then(handler_cycles, None, _unawaited)

    def _deliver(self) -> None:
        batch = self._pending
        self._pending = []
        self._delivery_scheduled = False
        self.delivered.count += 1
        if self.trace is not None:
            self.trace.emit(
                "irq.delivered", actor=self.name, batch=len(batch)
            )
        # Summed left to right, in this frame.
        total_handler = 0
        for cycles, _handler, _then, _args in batch:
            total_handler += cycles
        total = self.spec.entry_cycles + total_handler + self.spec.exit_cycles
        self.cpu.execute_then(total, "interrupt", self._then_handled, batch)

    def _handled(self, batch: _Batch) -> None:
        for _cycles, handler, _then, _args in batch:
            if handler is not None:
                handler()
        for _cycles, _handler, then, args in batch:
            then(*args)

    @property
    def coalescing_ratio(self) -> float:
        """Raised-to-delivered ratio (1.0 means no coalescing happened)."""
        return (
            self.raised.count / self.delivered.count
            if self.delivered.count
            else 0.0
        )

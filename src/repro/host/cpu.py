"""The host processor as a cycle-accounted serial resource.

The CPU executes *work items* measured in cycles.  Work is serialised
(one instruction stream), so concurrent demands queue; utilisation and
the total cycles burned per category are the experiment outputs.

Work is asked for one way: ``cpu.execute_then(cycles, "os-send", then,
*args)`` queues the work and calls ``then(*args)`` once it has run
(queueing included).  The CPU serves its queue from callbacks: one
timed queue entry per work item, then one zero-delay completion entry
that calls ``then`` -- after the entries already queued for that
instant.  The CPU pushes both entries onto the kernel's queue itself
(see :mod:`repro.sim.core`): an idle CPU books the work and queues its
timed entry in the request's own frame.  A process that must wait on
the CPU hands it an event's ``trigger`` and yields the event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Any, Callable, Deque, Dict, Optional

from repro.sim.core import Simulator

#: A queued work item: cycles, tag, and the continuation with its args.
_Work = tuple[float, str, Callable[..., Any], tuple[Any, ...]]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a processor."""

    name: str
    clock_hz: float
    #: Average instructions retired per clock; <1 for the era's caches.
    instructions_per_cycle: float = 1.0

    def __post_init__(self) -> None:
        if not self.clock_hz > 0:
            raise ValueError("clock must be positive")
        if not self.instructions_per_cycle > 0:
            raise ValueError("IPC must be positive")

    @property
    def cycle_time(self) -> float:
        """Seconds per clock cycle."""
        return 1.0 / self.clock_hz

    @property
    def mips(self) -> float:
        """Effective million instructions per second."""
        return self.clock_hz * self.instructions_per_cycle / 1e6

    def seconds_for(self, cycles: float) -> float:
        """Wall time for *cycles* of work."""
        if not cycles >= 0:
            raise ValueError(f"cycle count must be >= 0, got {cycles!r}")
        return cycles * self.cycle_time


#: The DECstation 5000/200-class host CPU the interface attached to.
R3000_25MHZ = CpuSpec("R3000-25MHz", clock_hz=25e6, instructions_per_cycle=0.8)


class HostCpu:
    """A serially scheduled, cycle-accounted processor."""

    def __init__(self, sim: Simulator, spec: CpuSpec, name: str = "cpu") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        #: Work items waiting behind the running one, oldest first.
        self._waiting: Deque[_Work] = deque()
        self._running = False
        self._busy_time = 0.0
        self.cycles_by_tag: Dict[str, float] = {}
        # Seconds per cycle, as ``spec.seconds_for`` multiplies by.
        self._cycle_time = spec.cycle_time
        # Bound once: each work item's timed entry carries this object.
        self._then_finish = self._finish

    # -- execution ----------------------------------------------------------

    def execute_then(
        self, cycles: float, tag: str, then: Callable[..., Any], *args: Any
    ) -> None:
        """Run *cycles* of work, then call ``then(*args)``.

        Work requests queue FIFO behind whatever the CPU is doing; the
        call comes from a zero-delay entry of its own once the work has
        run.  On an idle CPU the work starts here: this frame books it
        and queues its timed entry.
        """
        if not cycles >= 0:
            raise ValueError(f"cycle count must be >= 0, got {cycles!r}")
        if self._running:
            self._waiting.append((cycles, tag, then, args))
            return
        self._running = True
        duration = cycles * self._cycle_time
        self._busy_time += duration
        by_tag = self.cycles_by_tag
        by_tag[tag] = by_tag.get(tag, 0.0) + cycles
        sim = self.sim
        sequence = sim._sequence + 1
        sim._sequence = sequence
        heappush(
            sim._queue,
            (sim._now + duration, sequence, self._then_finish, (then, args)),
        )

    def _finish(self, then: Callable[..., Any], args: tuple[Any, ...]) -> None:
        # The caller continues from its own zero-delay entry, after the
        # entries already queued for this instant -- not inside this one.
        sim = self.sim
        sequence = sim._sequence + 1
        sim._sequence = sequence
        heappush(sim._queue, (sim._now, sequence, then, args))
        self._running = False
        if self._waiting:
            # The oldest waiting item starts on the idle CPU as if just
            # requested, so every item is booked by one rule.
            cycles, tag, waiting_then, waiting_args = self._waiting.popleft()
            self.execute_then(cycles, tag, waiting_then, *waiting_args)

    # -- readouts -------------------------------------------------------------

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles_by_tag.values())

    @property
    def busy_time(self) -> float:
        return self._busy_time

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of elapsed simulation time the CPU was busy."""
        end = self.sim.now if now is None else now
        return min(1.0, self._busy_time / end) if end > 0 else 0.0

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def cycles_for(self, tag: str) -> float:
        return self.cycles_by_tag.get(tag, 0.0)

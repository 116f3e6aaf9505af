"""The host processor as a cycle-accounted serial resource.

The CPU executes *work items* measured in cycles.  Work is serialised
(one instruction stream), so concurrent demands queue; utilisation and
the total cycles burned per category are the experiment outputs.

Three usage styles coexist:

- **callback**: ``cpu.execute_then(cycles, "os-send", then, *args)``
  queues the work and calls ``then(*args)`` once it has run (queueing
  included).  The CPU serves its queue from callbacks: one timed queue
  entry per work item, then one zero-delay completion entry that calls
  ``then`` -- after the entries already queued for that instant;
- **blocking**: a process does ``yield cpu.execute(cycles, "driver-tx")``
  and resumes when the work completes.  The event fires inside that
  same completion entry, so both styles take two entries per item;
- **accounting-only**: ``cpu.charge(cycles, tag)`` books cycles without
  simulating occupancy, for closed-form comparisons.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from repro.sim.core import Event, Simulator

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
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.instructions_per_cycle <= 0:
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
        if cycles < 0:
            raise ValueError("negative cycle count")
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

    # -- execution ----------------------------------------------------------

    def execute_then(
        self, cycles: float, tag: str, then: Callable[..., Any], *args: Any
    ) -> None:
        """Run *cycles* of work, then call ``then(*args)``.

        Work requests queue FIFO behind whatever the CPU is doing; the
        call comes from a zero-delay entry of its own once the work has
        run.
        """
        if cycles < 0:
            raise ValueError("negative cycle count")
        if self._running:
            self._waiting.append((cycles, tag, then, args))
        else:
            self._start(cycles, tag, then, args)

    def execute(self, cycles: float, tag: str = "work") -> Event:
        """Event that fires once *cycles* of work have run on the CPU."""
        done = Event(self.sim)
        self.execute_then(cycles, tag, done.fire)
        return done

    def _start(
        self, cycles: float, tag: str, then: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        self._running = True
        duration = self.spec.seconds_for(cycles)
        self._busy_time += duration
        self._book(cycles, tag)
        self.sim.schedule_call(duration, self._finish, then, args)

    def _finish(self, then: Callable[..., Any], args: tuple[Any, ...]) -> None:
        # The caller continues from its own zero-delay entry, after the
        # entries already queued for this instant -- not inside this one.
        self.sim.schedule_call(0.0, then, *args)
        if self._waiting:
            self._start(*self._waiting.popleft())
        else:
            self._running = False

    # -- accounting-only ----------------------------------------------------

    def charge(self, cycles: float, tag: str = "work") -> float:
        """Book *cycles* without occupying the pipeline; returns seconds."""
        if cycles < 0:
            raise ValueError("negative cycle count")
        self._book(cycles, tag)
        self._busy_time += self.spec.seconds_for(cycles)
        return self.spec.seconds_for(cycles)

    def _book(self, cycles: float, tag: str) -> None:
        self.cycles_by_tag[tag] = self.cycles_by_tag.get(tag, 0.0) + cycles

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

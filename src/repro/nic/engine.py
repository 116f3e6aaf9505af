"""The clocked execution substrate of a protocol engine.

An :class:`EngineClock` turns cycle budgets into simulated time and
keeps the engine's cycle ledger: how often each
:class:`~repro.nic.costs.Charge` ran.  That ledger is the only one;
the cycle profiler (:mod:`repro.obs.profiler`) reads it.  The transmit
and receive pipelines are callback state machines: each step books its
charge with ``clock.work(charge, then, *args)``, and the clock calls
``then(*args)`` when the engine has finished that work.  Between charges
a pipeline blocks only on its FIFO, a descriptor or a DMA -- the
structure of the firmware loop on the real microcontroller: compute,
then wait for the next cell or descriptor.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Dict, Optional

from repro.nic.costs import Charge, EngineSpec
from repro.sim.core import Simulator


class EngineClock:
    """Cycle-to-time conversion plus a busy-time and charge ledger.

    The engine is single-threaded by construction (one firmware loop),
    so unlike :class:`repro.host.cpu.HostCpu` there is no work queue:
    the owning pipeline is the only caller and charges its next step
    only from the completion of the previous one, so its program order
    serialises the work.
    """

    def __init__(self, sim: Simulator, spec: EngineSpec, name: str = "engine"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._busy_time = 0.0
        #: Each charge booked, with how often it ran.
        self.booked: Dict[Charge, int] = {}
        self._stall_pending = 0.0
        #: Total injected stall time the engine has absorbed.
        self.stalled_time = 0.0
        #: Number of injected stalls absorbed.
        self.stalls_taken = 0
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.  Each ``work()`` call then becomes an
        #: ``engine.work`` span.
        self.trace = sim.trace

    def request_stall(self, duration: float) -> None:
        """Fault-injection hook: freeze the engine for *duration* seconds.

        The stall is absorbed by the *next* ``work()`` call -- the
        firmware loop stops executing instructions but the rest of the
        system (links, FIFOs, DMA) keeps running, which is exactly how a
        wedged or preempted engine starves its receive FIFO.  Multiple
        requests accumulate.
        """
        if not duration >= 0:
            raise ValueError(f"stall duration must be >= 0, got {duration!r}")
        self._stall_pending += duration

    def work(self, charge: Charge, then: Callable[..., Any], *args: Any) -> None:
        """Run *charge*'s cycles of engine work, then call ``then(*args)``.

        The charge is booked now; the completion is one bare queue
        entry *duration* later (plus any injected stall).  Every cell
        runs this twice, so booking and queueing share one frame: the
        body of ``Simulator.schedule_call`` is inlined here (a NORMAL
        entry's key is its sequence number).
        """
        duration = charge.cycles / self.spec.clock_hz
        self._busy_time += duration
        booked = self.booked
        booked[charge] = booked.get(charge, 0) + 1
        if self.trace is not None or self._stall_pending > 0.0:
            duration = self._trace_and_stall(charge, duration)
        sim = self.sim
        sequence = sim._sequence + 1
        sim._sequence = sequence
        heappush(sim._queue, (sim._now + duration, sequence, then, args))

    def _trace_and_stall(self, charge: Charge, duration: float) -> float:
        """Trace booked work and absorb a pending stall (see :meth:`work`).

        Returns *duration* plus the stall absorbed, if any (see
        :meth:`request_stall`).
        """
        if self.trace is not None:
            self.trace.emit(
                "engine.work", actor=self.name, tag=charge.tag,
                cycles=charge.cycles, dur=duration,
            )
        if self._stall_pending > 0.0:
            stall, self._stall_pending = self._stall_pending, 0.0
            self.stalled_time += stall
            self.stalls_taken += 1
            duration += stall
            if self.trace is not None:
                self.trace.emit(
                    "engine.stall", actor=self.name, dur=stall,
                )
        return duration

    @property
    def total_cycles(self) -> float:
        return sum(charge.cycles * n for charge, n in self.booked.items())

    @property
    def cycles_by_tag(self) -> Dict[str, float]:
        """Cycles booked under each step tag."""
        by_tag: Dict[str, float] = {}
        for charge, n in self.booked.items():
            by_tag[charge.tag] = by_tag.get(charge.tag, 0.0) + charge.cycles * n
        return by_tag

    @property
    def busy_time(self) -> float:
        return self._busy_time

    def utilization(self, now: Optional[float] = None) -> float:
        """Busy fraction of elapsed simulation time."""
        end = self.sim.now if now is None else now
        return min(1.0, self._busy_time / end) if end > 0 else 0.0

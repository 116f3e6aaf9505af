"""The clocked execution substrate of a protocol engine.

An :class:`EngineClock` turns cycle budgets into simulated time and
keeps the utilisation ledger.  The transmit and receive pipelines are
processes that interleave ``yield clock.work(cycles, tag)`` calls with
waits on FIFOs and DMA -- which is exactly the structure of the
firmware loop on the real microcontroller: compute, then block on the
next cell or descriptor.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.nic.costs import EngineSpec
from repro.sim.core import Simulator, Timeout


class EngineClock:
    """Cycle-to-time conversion plus a busy-time/cycles ledger.

    The engine is single-threaded by construction (one firmware loop),
    so unlike :class:`repro.host.cpu.HostCpu` there is no contention
    resource: the owning pipeline process is the only caller, and its
    program order serialises the work.
    """

    def __init__(self, sim: Simulator, spec: EngineSpec, name: str = "engine"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._busy_time = 0.0
        self.cycles_by_tag: Dict[str, float] = {}
        self._stall_pending = 0.0
        #: Total injected stall time the engine has absorbed.
        self.stalled_time = 0.0
        #: Number of injected stalls absorbed.
        self.stalls_taken = 0
        #: Observability hook (repro.obs): a TraceRecorder, or None.
        #: Each ``work()`` call then becomes an ``engine.work`` span.
        self.trace = None

    def request_stall(self, duration: float) -> None:
        """Fault-injection hook: freeze the engine for *duration* seconds.

        The stall is absorbed by the *next* ``work()`` call -- the
        firmware loop stops executing instructions but the rest of the
        system (links, FIFOs, DMA) keeps running, which is exactly how a
        wedged or preempted engine starves its receive FIFO.  Multiple
        requests accumulate.
        """
        if duration < 0:
            raise ValueError("negative stall duration")
        self._stall_pending += duration

    def work(self, cycles: float, tag: str = "work") -> Timeout:
        """A timeout spanning *cycles* of engine execution (and book it)."""
        if cycles < 0:
            raise ValueError("negative cycle count")
        duration = self.spec.seconds_for(cycles)
        self._busy_time += duration
        self.cycles_by_tag[tag] = self.cycles_by_tag.get(tag, 0.0) + cycles
        if self.trace is not None:
            self.trace.emit(
                "engine.work", actor=self.name, tag=tag, cycles=cycles,
                dur=duration,
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
        return self.sim.timeout(duration)

    def charge(self, cycles: float, tag: str = "work") -> float:
        """Book cycles without waiting (for zero-duration accounting)."""
        if cycles < 0:
            raise ValueError("negative cycle count")
        duration = self.spec.seconds_for(cycles)
        self._busy_time += duration
        self.cycles_by_tag[tag] = self.cycles_by_tag.get(tag, 0.0) + cycles
        return duration

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles_by_tag.values())

    @property
    def busy_time(self) -> float:
        return self._busy_time

    def utilization(self, now: Optional[float] = None) -> float:
        """Busy fraction of elapsed simulation time."""
        end = self.sim.now if now is None else now
        return min(1.0, self._busy_time / end) if end > 0 else 0.0

    def headroom_against(self, cell_time: float, cycles_per_cell: float) -> float:
        """Ratio of link cell slot to engine per-cell service time.

        > 1 means the engine keeps up with back-to-back cells at the
        link rate; < 1 means it is the bottleneck.  This is the paper's
        core feasibility test.
        """
        if cycles_per_cell <= 0:
            return float("inf")
        return cell_time / self.spec.seconds_for(cycles_per_cell)

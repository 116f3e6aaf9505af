"""Discrete-event simulation kernel used by every other subsystem.

This is a small, self-contained, simpy-flavoured kernel built from scratch
for this reproduction.  It provides:

- :class:`~repro.sim.core.Simulator` -- the event loop and clock; its
  ``schedule_call(delay, fn, *args)`` queues a bare call,
- :class:`~repro.sim.core.Event` -- a one-shot occurrence a process
  waits on,
- :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes (``yield sim.timeout(...)``), for code that sleeps on
  simulated time: sources, timers, supervisors, sessions,
- monitors (:mod:`repro.sim.monitor`) for statistics collection, and
- :class:`~repro.sim.random.RandomStreams` for reproducible, independently
  seeded random number streams.

A model step that waits on another -- a host step, a hand-off -- passes
it a continuation, ``then(*args)``, which the step calls where it ends.
A process that must wait on such a step hands it an event's
``trigger`` and yields the event.  The kernel has no FIFO store:
bounded hand-offs (cell FIFOs, descriptor rings) are the NIC's
:class:`~repro.nic.fifo.CellFifo`.

Simulation time is a float measured in **seconds**.  Ties in event time are
broken deterministically by scheduling order, so a simulation is fully
reproducible given a seed.
"""

from repro.sim.core import (
    Event,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.monitor import (
    Counter,
    SeriesRecorder,
    ThroughputMeter,
    TimeWeightedStat,
    WelfordStat,
)
from repro.sim.random import RandomStreams

__all__ = [
    "Counter",
    "Event",
    "Process",
    "RandomStreams",
    "SeriesRecorder",
    "SimulationError",
    "Simulator",
    "ThroughputMeter",
    "TimeWeightedStat",
    "Timeout",
    "WelfordStat",
]

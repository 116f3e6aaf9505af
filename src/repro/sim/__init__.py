"""Discrete-event simulation kernel used by every other subsystem.

This is a small, self-contained, simpy-flavoured kernel built from scratch
for this reproduction.  It provides:

- :class:`~repro.sim.core.Simulator` -- the event loop and clock,
- :class:`~repro.sim.core.Event` -- the primitive everything waits on,
- :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes (``yield sim.timeout(...)``),
- resources (:class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.Store`) for contention modelling,
- monitors (:mod:`repro.sim.monitor`) for statistics collection, and
- :class:`~repro.sim.random.RandomStreams` for reproducible, independently
  seeded random number streams.

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
from repro.sim.process import AllOf, AnyOf, Interrupt, Process
from repro.sim.monitor import (
    Counter,
    Histogram,
    SeriesRecorder,
    ThroughputMeter,
    TimeWeightedStat,
    WelfordStat,
)
from repro.sim.random import RandomStreams
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "Histogram",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SeriesRecorder",
    "SimulationError",
    "Simulator",
    "Store",
    "ThroughputMeter",
    "TimeWeightedStat",
    "Timeout",
    "WelfordStat",
]

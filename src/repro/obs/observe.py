"""One observation path: every simulator built inside :func:`observe`.

Components copy their trace hook from their
:class:`~repro.sim.core.Simulator` when they are built (``self.trace =
sim.trace``), and the cell-carrying ones add themselves to
``sim.components``.  :func:`observe` fills the hook in, so an
experiment is observed by running its own ``run_*``, not a copy of its
scenario::

    with observe() as observation:
        get("R1")(loss_rates=[0.01], window=0.002)
    for view in observation.views:
        print(len(view.recorder), view.ledger.snapshot().unaccounted)

Observations nest: a simulator built inside two open observations is
one view that both list, traced if either asks for a trace.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.faults.audit import CellConservationAuditor
from repro.obs.metrics import MetricsRegistry, instrument, instrumentable
from repro.obs.profiler import CycleProfiler
from repro.obs.trace import TraceRecorder
from repro.sim.core import Simulator

#: Metric samples taken over a simulator's first ``run(until=...)``.
SAMPLES_PER_WINDOW = 50


class SimulatorView:
    """One observed simulator's recorder, registry, profiler and ledger.

    The registry covers every instrumentable component built, sampled
    every 1/50 of the simulator's first ``run(until=...)`` window; the
    ledger is closed over everything built
    (:meth:`~repro.faults.audit.CellConservationAuditor.closed`); the
    profiler reads the engine clocks of every interface built.
    """

    def __init__(self, sim: Simulator, trace: bool) -> None:
        self.sim = sim
        #: Every event the simulator's components emitted (first
        #: :data:`~repro.obs.trace.EVENT_CAP`), or None when untraced.
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(sim) if trace else None
        )
        self.registry = MetricsRegistry(sim)
        #: The books over every link, port, switch and interface built.
        self.ledger = CellConservationAuditor.closed(sim.components)
        instrument(self.registry, self.ledger)
        self._instrumented = 0
        self._prefixes: Dict[str, int] = {}
        self._finished = False
        sim.trace = self.recorder
        sim.on_first_run = self._sample_window

    def _register_new_components(self) -> None:
        """Instrument the components built since the last call."""
        components = self.sim.components
        while self._instrumented < len(components):
            component = components[self._instrumented]
            self._instrumented += 1
            if not instrumentable(component):
                continue
            name = getattr(component, "name", "") or type(component).__name__
            seen = self._prefixes.get(name, 0) + 1
            self._prefixes[name] = seen
            label = name if seen == 1 else f"{name}#{seen}"
            instrument(self.registry, component, prefix=f"{label}.")

    def _sample_window(self, window: float) -> None:
        self._register_new_components()
        self.registry.start_sampling(
            window / SAMPLES_PER_WINDOW, until=self.sim.now + window
        )

    def finish(self) -> None:
        """Take the closing sample (once, however many observations end).

        Components built after the first run's start join the registry
        here.
        """
        if not self._finished:
            self._finished = True
            self._register_new_components()
            self.registry.sample()

    @property
    def profiler(self) -> CycleProfiler:
        """The cycle ledgers of every interface's engine clocks."""
        return CycleProfiler(
            clock
            for component in self.sim.components
            for clock in (
                getattr(component, "tx_clock", None),
                getattr(component, "rx_clock", None),
            )
            if clock is not None
        )


class Observation:
    """The views of every simulator built while it was open, in order."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.views: List[SimulatorView] = []


_open: List[Observation] = []


def _observe(sim: Simulator) -> None:
    view = SimulatorView(sim, trace=any(o.trace for o in _open))
    for observation in _open:
        observation.views.append(view)


@contextmanager
def observe(trace: bool = True) -> Iterator[Observation]:
    """Observe every simulator built inside the ``with`` block.

    *trace* false skips the recorders (metrics, profiler and ledger
    stay), for runs too large to hold their events.  Each view takes a
    last metrics sample when the block exits.  A pooled or
    store-backed sweep inside the block raises, since its points build
    their simulators elsewhere or not at all.
    """
    observation = Observation(trace)
    _open.append(observation)
    Simulator.observer = _observe
    try:
        yield observation
    finally:
        _open.remove(observation)
        if not _open:
            Simulator.observer = None
        for view in observation.views:
            view.finish()

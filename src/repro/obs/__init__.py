"""Observability for the host-interface pipeline: trace, metrics, cycles.

The simulation answers the paper's questions with end-of-run numbers;
this package makes the *run itself* observable, three ways:

- :mod:`repro.obs.trace` -- :class:`TraceRecorder` tags every cell and
  PDU with an id and records timestamped lifecycle events (SAR, FIFO
  handshakes, CAM lookups, DMA, interrupts, delivery, and every drop
  with its reason).  Export as JSONL or as a Chrome ``trace_event``
  file that loads straight into Perfetto.
- :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` puts one
  namespace over the pipeline's live counters and gauges (NIC stats,
  FIFO and buffer-memory occupancy, engine utilisation, the fault
  auditor's conservation ledger), with periodic sampling into time
  series and CSV/JSON export.
- :mod:`repro.obs.profiler` -- :class:`CycleProfiler` reads the engine
  clocks' own ledgers and attributes every engine cycle to the cost
  models' named operations and the paper's analysis phases, rendering
  measured T1/T2 budget tables from a live run.

The one hook is a duck-typed attribute (``component.trace``) that every
component copies from its simulator when it is built; the pipeline
packages never import this one, and an unobserved run costs a single
attribute test per would-be event.  The profiler needs no hook: it
reads what the engine clocks book anyway.  :mod:`repro.obs.observe`
is the one way to fill the hook in: every simulator built inside
:func:`observe` gets a recorder, a registry over its components, a
profiler and a closed conservation ledger::

    from repro.obs import observe

    with observe() as observation:
        sim = Simulator()
        ...build any scenario on sim, or call any run_*...
        sim.run(until=0.02)
    view = observation.views[0]
    view.recorder.export_chrome("trace.json")  # load at ui.perfetto.dev
    view.registry.to_csv("metrics.csv")
    print(view.profiler.render())              # measured T1'/T2' tables
    print(view.ledger.snapshot().format())     # cell conservation

See ``docs/OBSERVABILITY.md`` for the full event taxonomy and exporter
formats, and ``python -m repro <ID> --trace PATH --metrics PATH
--profile --audit`` for the command-line entry point.
"""

from repro.obs.metrics import (
    INSTRUMENT_DISPATCH,
    KINDS,
    TOPK_DEFAULT,
    Metric,
    MetricsRegistry,
    instrument,
    topk_book,
)
from repro.obs.observe import Observation, SimulatorView, observe
from repro.obs.profiler import PHASE_OF_OP, PHASES, CycleProfiler
from repro.obs.trace import (
    DROP_REASONS,
    EVENT_CAP,
    EVENT_TAXONOMY,
    TraceEvent,
    TraceRecorder,
    TraceWriter,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "DROP_REASONS",
    "EVENT_CAP",
    "EVENT_TAXONOMY",
    "INSTRUMENT_DISPATCH",
    "KINDS",
    "PHASES",
    "PHASE_OF_OP",
    "TOPK_DEFAULT",
    "CycleProfiler",
    "Metric",
    "MetricsRegistry",
    "Observation",
    "SimulatorView",
    "TraceEvent",
    "TraceRecorder",
    "TraceWriter",
    "instrument",
    "observe",
    "read_jsonl",
    "topk_book",
    "write_chrome_trace",
    "write_jsonl",
]

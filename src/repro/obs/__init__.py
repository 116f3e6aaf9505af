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
- :mod:`repro.obs.profiler` -- :class:`CycleProfiler` attributes every
  engine cycle to the cost models' named operations and the paper's
  analysis phases, rendering measured T1/T2 budget tables from a live
  run.

All hooks are duck-typed attributes (``component.trace``,
``engine.profiler``) that default to ``None``: the pipeline packages
never import this one, and a disabled hook costs a single attribute
test on the hot path.

Usage -- instrument any testbed in three lines each::

    from repro.obs import (
        CycleProfiler, MetricsRegistry, TraceRecorder,
        instrument, profile_interface,
    )

    recorder = TraceRecorder(sim)
    nic.attach_trace(recorder)            # every component now emits

    registry = MetricsRegistry(sim)
    instrument(registry, nic)             # standard counter/gauge set
    registry.start_sampling(period=1e-4)

    profiler = profile_interface(nic)     # cycle attribution

    sim.run(until=0.02)
    recorder.export_chrome("trace.json")  # load at ui.perfetto.dev
    registry.to_csv("metrics.csv")
    print(profiler.render())              # measured T1'/T2' tables

See ``docs/OBSERVABILITY.md`` for the full event taxonomy and exporter
formats, and ``python -m repro trace`` for the command-line entry
point.
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
from repro.obs.profiler import (
    PHASE_OF_OP,
    PHASES,
    CycleProfiler,
    profile_interface,
)
from repro.obs.trace import (
    DROP_REASONS,
    EVENT_TAXONOMY,
    TraceEvent,
    TraceRecorder,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "DROP_REASONS",
    "EVENT_TAXONOMY",
    "INSTRUMENT_DISPATCH",
    "KINDS",
    "PHASES",
    "PHASE_OF_OP",
    "TOPK_DEFAULT",
    "CycleProfiler",
    "Metric",
    "MetricsRegistry",
    "TraceEvent",
    "TraceRecorder",
    "instrument",
    "profile_interface",
    "read_jsonl",
    "topk_book",
    "write_chrome_trace",
    "write_jsonl",
]

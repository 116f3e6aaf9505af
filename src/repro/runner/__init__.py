"""``repro.runner``: deterministic parallel sweep execution.

The evaluation is a sweep -- line rates, PDU sizes, VC counts, engine
clocks, architectures -- and this package turns every sweep-shaped
experiment into a declarative grid executed across worker processes
with results bit-identical to a serial run:

- :mod:`repro.runner.spec` -- :class:`SweepSpec` / :class:`Point`
  parameter grids with a stable content hash per point;
- :mod:`repro.runner.executor` -- :class:`Executor` / :func:`run_sweep`,
  process-pool sharding with hash-derived RNG seeding and per-point
  crash isolation;
- :mod:`repro.runner.store` -- :class:`ResultStore`, the
  content-addressed ``.repro-cache/`` (keyed by point hash x kernel x
  cost-model and source fingerprints) plus :class:`RunLog` JSONL
  journals;
- :mod:`repro.runner.gate` -- :class:`BaselineGate`, the
  ``python -m repro bench --check`` gate: each experiment's canonical
  result compared exactly with the one committed in
  ``benchmarks/baselines/<ID>.json``, and its paper claims checked;
- :mod:`repro.runner.bench` -- the ``bench`` subcommand (imported on
  demand, not here: it reads the experiment table, and the experiments
  import this package).

See ``docs/RUNNER.md`` for the sweep-spec format, cache layout, and
baseline semantics.
"""

from repro.runner.executor import (
    Executor,
    Kernel,
    PointFailure,
    SweepError,
    SweepRun,
    kernel_name,
    run_sweep,
)
from repro.runner.gate import Baseline, BaselineGate, GateReport
from repro.runner.spec import Point, SweepSpec, content_hash
from repro.runner.store import (
    DEFAULT_CACHE_DIR,
    ResultStore,
    RunLog,
    cost_model_fingerprint,
)

__all__ = [
    "Baseline",
    "BaselineGate",
    "DEFAULT_CACHE_DIR",
    "Executor",
    "GateReport",
    "Kernel",
    "Point",
    "PointFailure",
    "ResultStore",
    "RunLog",
    "SweepError",
    "SweepRun",
    "SweepSpec",
    "content_hash",
    "cost_model_fingerprint",
    "kernel_name",
    "run_sweep",
]

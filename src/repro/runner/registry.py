"""The experiment registry: one typed entry per experiment id.

:data:`repro.results.experiments.EXPERIMENTS` maps ids to bare
callables; this module wraps each in an :class:`ExperimentEntry`
recording what the CLI and the bench harness need to know about it:

- a one-line *description* (the run function's docstring headline),
  so ``python -m repro --help`` can enumerate every experiment;
- whether the experiment is *sweep-shaped* -- migrated onto
  :mod:`repro.runner` and therefore accepting ``workers`` / ``store``
  / ``log`` keyword arguments;
- the reduced *bench_kwargs* the regression gate runs it with (full
  evaluation parameters take minutes; the gate needs seconds).

This module imports the experiments (and the experiments import
``repro.runner``), which is why ``repro.runner.__init__`` must never
import it back -- callers reach it as ``repro.runner.registry``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.results.experiments import EXPERIMENTS, ExperimentResult
from repro.runner.store import ResultStore, RunLog

#: Experiments migrated onto the sweep runner (accept workers/store/log).
SWEEP_IDS = frozenset({"F6", "T5", "F7", "R1", "R2", "C1", "S1"})

#: Reduced parameters the bench gate runs each benched experiment with.
#: Chosen so the whole gated set finishes in seconds while every
#: headline metric stays pinned (see benchmarks/baselines/*.json).
BENCH_KWARGS: Dict[str, Dict[str, Any]] = {
    "T1": {},
    "T2": {},
    "F6": {"vc_counts": [1, 4, 16], "window": 0.01},
    "F7": {"clocks_mhz": [10, 20, 25, 33, 50], "window": 0.01},
    "R1": {"loss_rates": [0.0, 0.01, 0.02], "window": 0.005},
    "R2": {"seeds": [1, 2]},
    "C1": {"seeds": [1, 2], "duration": 0.06, "warmup": 0.02},
    # S1 cannot be shrunk much below its defaults: the >= 2048
    # concurrency bar needs the full Poisson steady state, so it is the
    # one long-running bench entry (the CI scale job runs it alone).
    "S1": {"seeds": [1, 2]},
}


@dataclass(frozen=True)
class ExperimentEntry:
    """Everything the harness knows about one experiment id."""

    id: str
    run: Callable[..., ExperimentResult]
    description: str
    #: True when the run function is sweep-shaped (runner-migrated).
    sweep: bool
    #: Reduced kwargs for the bench gate ({} means "bench at defaults";
    #: ids absent from BENCH_KWARGS are not benched by default).
    bench_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __call__(
        self,
        workers: int = 0,
        store: Optional[ResultStore] = None,
        log: Optional[RunLog] = None,
        **kwargs: Any,
    ) -> ExperimentResult:
        """Run the experiment, forwarding runner knobs only if it sweeps."""
        if self.sweep:
            return self.run(workers=workers, store=store, log=log, **kwargs)
        return self.run(**kwargs)


def _headline(fn: Callable[..., ExperimentResult]) -> str:
    doc = (fn.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def _build() -> Dict[str, ExperimentEntry]:
    return {
        experiment_id: ExperimentEntry(
            id=experiment_id,
            run=fn,
            description=_headline(fn),
            sweep=experiment_id in SWEEP_IDS,
            bench_kwargs=dict(BENCH_KWARGS.get(experiment_id, {})),
        )
        for experiment_id, fn in EXPERIMENTS.items()
    }


#: The registry itself, keyed by upper-case experiment id, in the
#: presentation order EXPERIMENTS defines.
REGISTRY: Dict[str, ExperimentEntry] = _build()

#: Ids the bench harness runs when none are named on the command line.
BENCH_DEFAULT: List[str] = [i for i in REGISTRY if i in BENCH_KWARGS]


def entries() -> List[ExperimentEntry]:
    """Every registered experiment, in presentation order."""
    return list(REGISTRY.values())


def get(experiment_id: str) -> ExperimentEntry:
    """Look up one entry by (case-insensitive) id."""
    entry = REGISTRY.get(experiment_id.upper())
    if entry is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(sorted(REGISTRY))}"
        )
    return entry


def describe() -> str:
    """The id/description table ``python -m repro --help`` embeds."""
    lines = []
    for entry in entries():
        marker = "*" if entry.sweep else " "
        lines.append(f"  {entry.id:4s}{marker} {entry.description}")
    lines.append("  (* = sweep-shaped: honours --workers/--no-cache)")
    return "\n".join(lines)

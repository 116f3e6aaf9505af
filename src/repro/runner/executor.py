"""Sharded sweep execution with bit-identical-to-serial results.

The :class:`Executor` turns a :class:`~repro.runner.spec.SweepSpec`
plus a *kernel* -- a module-level function
``kernel(params, streams) -> dict`` -- into one values dict per point.
With ``workers <= 1`` every point runs inline; with ``workers >= 2``
uncached points fan out over a ``ProcessPoolExecutor``.  Three rules
make the two modes byte-identical:

1. **Determinism by construction.**  A kernel sees only its parameter
   dict and a :class:`~repro.sim.random.RandomStreams` factory seeded
   from the *point's content hash* -- never the worker id, the pid, or
   the completion order (simlint SL6 polices this).  Identical inputs,
   identical outputs, wherever and whenever the point runs.
2. **Assembly in spec order.**  Results are keyed by point index and
   reassembled in the spec's expansion order; completion order is
   invisible in the output.
3. **Workers never touch the store.**  Cache reads happen before
   submission and writes after collection, both in the parent, so
   parallelism adds no filesystem races.

Failure containment: a point that raises is recorded as a failure
while the rest of the sweep completes.  Only at the end does
:func:`run_sweep` raise a :class:`SweepError` naming every casualty --
one diverging point fails loudly without killing the sweep.  A point
runs once: its kernel is a pure function of its parameters and
hash-derived seed, so a point that raised would raise again.  If the
pool itself breaks (a worker segfaulted or was OOM-killed), every
point still pending is recorded as failed with that error.
"""

from __future__ import annotations

import concurrent.futures
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.analysis.sweep import Series
from repro.runner.spec import Point, SweepSpec
from repro.runner.store import ResultStore, RunLog
from repro.sim.core import Simulator
from repro.sim.random import RandomStreams

#: A sweep kernel: pure function of (params, hash-derived streams).
Kernel = Callable[[Dict[str, Any], RandomStreams], Dict[str, Any]]


def kernel_name(kernel: Kernel) -> str:
    """Stable dotted identity of a kernel (part of the cache key)."""
    return f"{kernel.__module__}:{kernel.__qualname__}"


def _invoke(kernel: Kernel, params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Worker entry point: run one point with its hash-derived streams."""
    values = kernel(dict(params), RandomStreams(seed))
    if not isinstance(values, dict):
        raise TypeError(
            f"kernel {kernel_name(kernel)} returned "
            f"{type(values).__name__}, expected dict"
        )
    return values


@dataclass
class PointFailure:
    """One point whose kernel raised."""

    point: Point
    error: str

    def format(self) -> str:
        return f"{self.point.label()} failed: {self.error}"


@dataclass
class SweepRun:
    """Everything one sweep execution produced, in spec order."""

    spec: SweepSpec
    kernel: str
    points: List[Point]
    #: One values dict per point (None where the point failed).
    values: List[Optional[Dict[str, Any]]]
    failures: List[PointFailure] = field(default_factory=list)
    #: Executor counters: points / executed / cached / failed.
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def series(
        self, name: str, x_label: Optional[str] = None
    ) -> Series:
        """The sweep as a :class:`~repro.analysis.sweep.Series`.

        ``x_label`` defaults to the spec's ``x_axis``; every point must
        have succeeded and returned the same value keys.
        """
        axis = x_label if x_label is not None else self.spec.x_axis
        if axis is None:
            raise ValueError("sweep has no x axis; pass x_label")
        series = Series(name=name, x_label=axis)
        for point, values in zip(self.points, self.values):
            if values is None:
                raise ValueError(
                    f"cannot build a series with failed point {point.label()}"
                )
            series.add_point(point.params[axis], **values)
        return series


class SweepError(RuntimeError):
    """Raised after a completed sweep that had failing points."""

    def __init__(self, run: SweepRun) -> None:
        self.run = run
        lines = [f"{len(run.failures)} of {len(run.points)} sweep point(s) failed:"]
        lines += [f"  {f.format()}" for f in run.failures]
        super().__init__("\n".join(lines))


class Executor:
    """Runs sweeps serially or across a process pool (see module doc)."""

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        #: Counters of the most recent run (see ``SweepRun.stats``).
        self.stats: Dict[str, int] = {}

    # -- public ------------------------------------------------------------

    def run(
        self,
        spec: SweepSpec,
        kernel: Kernel,
        store: Optional[ResultStore] = None,
        log: Optional[RunLog] = None,
    ) -> SweepRun:
        """Execute every point of *spec*; never raises on point failure.

        Callers that want loud failure use :func:`run_sweep`, which
        re-raises the collected casualties as a :class:`SweepError`.
        Inside :func:`repro.obs.observe` the sweep must run serially
        and unstored: pooled points build their simulators in other
        processes and stored ones build none, so the observation would
        miss them without saying so.
        """
        if Simulator.observer is not None and (
            self.workers > 0 or store is not None
        ):
            raise RuntimeError(
                f"{spec.experiment}: observe() cannot see a pooled or "
                "store-backed sweep; run it with workers=0 and no store"
            )
        points = spec.points()
        kname = kernel_name(kernel)
        self.stats = {
            "points": len(points),
            "executed": 0,
            "cached": 0,
            "failed": 0,
        }
        run = SweepRun(
            spec=spec,
            kernel=kname,
            points=points,
            values=[None] * len(points),
        )
        if log is not None:
            log.event(
                "sweep_started",
                experiment=spec.experiment,
                kernel=kname,
                points=len(points),
                workers=self.workers,
                spec_hash=spec.spec_hash(),
                fingerprint=store.fingerprint if store is not None else None,
            )

        # Cache probe (parent process only).
        pending: List[Point] = []
        for point in points:
            cached = store.get(point, kname) if store is not None else None
            if cached is not None:
                run.values[point.index] = cached
                self.stats["cached"] += 1
                if log is not None:
                    log.event(
                        "point_cached", index=point.index, hash=point.hash
                    )
            else:
                pending.append(point)

        if pending:
            if self.workers >= 2:
                self._run_pool(pending, kernel, run, log)
            else:
                self._run_serial(pending, kernel, run, log)

        # Persist fresh results (parent process only).
        if store is not None:
            for point in pending:
                values = run.values[point.index]
                if values is not None:
                    store.put(point, kname, values)

        self.stats["failed"] = len(run.failures)
        run.stats = dict(self.stats)
        if log is not None:
            log.event("sweep_completed", stats=run.stats)
        return run

    # -- execution modes ---------------------------------------------------

    def _record(
        self,
        run: SweepRun,
        log: Optional[RunLog],
        point: Point,
        values: Optional[Dict[str, Any]],
        error: Optional[str],
        elapsed: float,
    ) -> None:
        if values is not None:
            run.values[point.index] = values
            self.stats["executed"] += 1
            if log is not None:
                log.event(
                    "point_completed",
                    index=point.index,
                    hash=point.hash,
                    elapsed_s=round(elapsed, 6),
                )
        else:
            run.failures.append(PointFailure(point=point, error=error or "?"))
            if log is not None:
                log.event(
                    "point_failed",
                    index=point.index,
                    hash=point.hash,
                    error=error,
                )

    def _run_serial(
        self,
        pending: List[Point],
        kernel: Kernel,
        run: SweepRun,
        log: Optional[RunLog],
    ) -> None:
        for point in pending:
            started = time.perf_counter()
            values: Optional[Dict[str, Any]] = None
            error: Optional[str] = None
            try:
                values = _invoke(kernel, point.params, point.seed)
            except Exception as exc:  # noqa: BLE001 -- isolation boundary
                error = f"{type(exc).__name__}: {exc}"
            self._record(
                run, log, point, values, error, time.perf_counter() - started
            )

    def _run_pool(
        self,
        pending: List[Point],
        kernel: Kernel,
        run: SweepRun,
        log: Optional[RunLog],
    ) -> None:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending))
        ) as pool:
            futures = {
                point.index: pool.submit(
                    _invoke, kernel, point.params, point.seed
                )
                for point in pending
            }
            # Collect in spec order: completion order must stay invisible.
            for point in pending:
                started = time.perf_counter()
                values: Optional[Dict[str, Any]] = None
                error: Optional[str] = None
                try:
                    values = futures[point.index].result()
                except concurrent.futures.BrokenExecutor as exc:
                    # The pool died under us (a worker segfaulted or was
                    # OOM-killed); nothing further can run.
                    error = f"worker pool broke: {exc}"
                except Exception as exc:  # noqa: BLE001 -- isolation boundary
                    error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                self._record(
                    run, log, point, values, error, time.perf_counter() - started
                )


def run_sweep(
    spec: SweepSpec,
    kernel: Kernel,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    log: Optional[RunLog] = None,
) -> SweepRun:
    """Execute *spec* and fail loudly if any point failed.

    The convenience wrapper every experiment uses: builds an
    :class:`Executor`, runs the sweep to completion (every healthy
    point finishes even when one diverges), then raises
    :class:`SweepError` carrying the partial :class:`SweepRun` if there
    were casualties.
    """
    executor = Executor(workers=workers)
    run = executor.run(spec, kernel, store=store, log=log)
    if not run.ok:
        raise SweepError(run)
    return run

"""Simulator benchmark: one workload, one seed, one batch run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload churn --seed 1 --seconds 15 --trace 1

A run imports the simulator from ``src/``, builds the workload's
scenario and warms it up (several times; the last build is the one
measured), times a fixed stretch of simulated work sized to last about
``--seconds`` here, drains, and checks the outputs.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
untraced run, then runs the same workload and seed again in a fresh
process with ``cProfile`` enabled around every other measured slice
only, folds the profile by layer (``fold.py``) and reports the
per-layer metrics.  The folded table and the raw profile are written to
``perfbench/out/``.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import fold

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: Builds (with warm-up) per run; setup_s is their median.
SETUPS = 7
#: Equal slices of the measured phase, each timed on its own.
SLICES = 80
#: The traced run profiles every other slice (the odd ones), which
#: halves the profiler's cost and leaves the counts exact.
PROFILED = frozenset(range(1, SLICES, 2))
#: Iterations of the host-speed probe, and its seconds on the reference
#: host when nothing slows it (see _probe and _timed).
PROBE_TICKS = 8000
PROBE_REF_S = 0.0007
#: A whole run, traced child included, ends within this many seconds.
RUN_LIMIT_S = 175


def _import_workloads():
    """Import the simulator and the workloads; returns (module, seconds)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: simulator sources not found under {src}")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - start


class _CrcBytes:
    """Counts bytes fed to ``CrcAlgorithm.update`` while installed."""

    def __init__(self) -> None:
        from repro.aal.crc import CrcAlgorithm

        self.bytes = 0
        self._cls = CrcAlgorithm
        self._original = CrcAlgorithm.update

    def __enter__(self) -> "_CrcBytes":
        original = self._original
        counter = self

        def update(crc, state, data):
            counter.bytes += len(data)
            return original(crc, state, data)

        self._cls.update = update
        return self

    def __exit__(self, *exc) -> None:
        self._cls.update = self._original


class _Tally:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total += value


def _ticks(count: int):
    for tick in range(count):
        yield tick


def _probe() -> float:
    """Host seconds for a fixed piece of interpreter work.

    Generator resumes, method calls and attribute updates -- the
    simulator's staple -- allocating just two objects, so it never
    triggers a garbage collection whose cost would depend on the
    simulator's heap.
    """
    tally = _Tally()
    start = time.perf_counter()
    for tick in _ticks(PROBE_TICKS):
        tally.add(tick & 7)
    return time.perf_counter() - start


def _timed(action) -> Tuple[float, float]:
    """Run *action*; returns (host seconds, reference seconds).

    Reference seconds are host seconds scaled to the reference host's
    speed, measured by the probe just before and just after *action*:
    when the host runs the probe at half speed, a second counts as half.
    """
    before = _probe()
    start = time.perf_counter()
    action()
    elapsed = time.perf_counter() - start
    speed = PROBE_REF_S / ((before + _probe()) / 2)
    return elapsed, elapsed * speed


def _timed_setup(cls, seed: int, seconds: float):
    """Build and warm up one scenario; returns it and its _timed pair."""
    gc.collect()
    built = []

    def setup() -> None:
        workload = cls.for_seconds(seed, seconds)
        workload.build()
        workload.warm_up()
        built.append(workload)

    timing = _timed(setup)
    return built[0], timing


def run_once(
    workloads, name: str, seed: int, seconds: float, profile: bool = False
) -> Dict[str, Any]:
    """Build, warm up, measure, drain and check one workload.

    The measured phase runs as ``SLICES`` equal slices of simulated
    time, each timed on its own.  Between slices, ``SETUPS - 1`` spare
    copies of the scenario are built, warmed up, timed and discarded,
    so the set-up samples are spread over the run rather than bunched
    into one stretch of host speed.  With *profile*, the ``PROFILED``
    slices run under the profiler and the CRC byte counter.
    """
    cls = workloads.WORKLOADS[name]
    workload, first_setup = _timed_setup(cls, seed, seconds)
    setups = [first_setup]
    spare_at = {
        SLICES * (2 * k + 1) // (2 * (SETUPS - 1)) for k in range(SETUPS - 1)
    }
    sim = workload.sim
    profiler = cProfile.Profile() if profile else None
    crc = _CrcBytes() if profile else None
    cells = events = profiled_cells = 0
    slices: List[Tuple[float, float]] = []
    rates: List[float] = []
    for index in range(SLICES):
        if index in spare_at:
            spare, spare_s = _timed_setup(cls, seed, seconds)
            setups.append(spare_s)
            del spare
            gc.collect()
        cells0 = workload.cells_received()
        events0 = sim.events_processed
        profiled = profile and index in PROFILED

        def measure_slice() -> None:
            if profiled:
                crc.__enter__()
                profiler.enable()
            workload.measure_slice(index, SLICES)
            if profiled:
                profiler.disable()
                crc.__exit__(None, None, None)

        timing = _timed(measure_slice)
        slice_cells = workload.cells_received() - cells0
        cells += slice_cells
        if index in PROFILED:
            profiled_cells += slice_cells
        events += sim.events_processed - events0
        slices.append(timing)
        rates.append(slice_cells / timing[1])
    peak_queue = sim.peak_queue_occupancy

    workload.drain()
    verdict = workload.verdict()
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": statistics.median(ref for _, ref in setups),
        "setups_s": [ref for _, ref in setups],
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "measured_s": sum(ref for _, ref in slices),
        "raw_measured_s": sum(raw for raw, _ in slices),
        "slice_seconds": [ref for _, ref in slices],
        "cells_per_host_s": statistics.median(rates),
        "cells": cells,
        "profiled_cells": profiled_cells,
        "events": events,
        "peak_queue": peak_queue,
        "goodput_err_pct": workload.goodput_err_pct(),
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "conserved": verdict["conserved"],
        "unaccounted": verdict["unaccounted"],
        "digest": verdict["digest"],
    }
    if profile:
        result["profile"] = profiler
        result["crc_bytes"] = crc.bytes
    return result


def _ok(result: Dict[str, Any]) -> bool:
    return (
        result["failed"] == 0
        and result["attempted"] > 0
        and result["conserved"]
        and result["unaccounted"] == 0
        and result["cells"] > 0
    )


def _peak_rss_mb() -> float:
    # ru_maxrss is kilobytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "cells_per_host_s": _metric(result["cells_per_host_s"], "cells/s"),
        "setup_s": _metric(result["setup_s"], "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }


def traced_child(workloads, args) -> Dict[str, Any]:
    """The profiled run: fold the profile and write it out."""
    import repro
    from repro.atm.cell import AtmCell
    from repro.sim.process import Process

    result = run_once(
        workloads, args.workload, args.seed, args.seconds, profile=True
    )
    profiler = result.pop("profile")
    rows = fold.table_from_stats(profiler.getstats())
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    layer_of = fold.layer_classifier(package_dir, HERE)
    markers = {
        "procs": fold.code_key(Process.__init__.__code__),
        "cells_built": fold.code_key(AtmCell.__post_init__.__code__),
    }
    folded = fold.fold(rows, layer_of, package_dir, markers)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}")
    profiler.dump_stats(stem + ".prof")
    with open(stem + ".folded.json", "w") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "profiled_slices": len(PROFILED),
                "slices": SLICES,
                "profiled_cells": result["profiled_cells"],
                "crc_bytes": result["crc_bytes"],
                **folded,
            },
            handle,
            indent=1,
            sort_keys=True,
        )
    result["folded"] = folded
    return result


def per_layer(
    untraced: Dict[str, Any], traced: Dict[str, Any], import_s: float
) -> Dict[str, Any]:
    folded = traced["folded"]
    cells = traced["profiled_cells"]
    metrics: Dict[str, Any] = {}
    for layer in fold.REPORTED:
        metrics[f"{layer}.self_pct"] = _metric(folded["self_pct"][layer], "%")
    for layer in fold.CALLING_LAYERS:
        metrics[f"{layer}.sim_calls_per_cell"] = _metric(
            folded["kernel_calls"][layer] / cells, "calls/cell"
        )
    metrics["sim.events_per_cell"] = _metric(
        untraced["events"] / untraced["cells"], "events/cell"
    )
    metrics["sim.us_per_event"] = _metric(
        1e6 * untraced["measured_s"] / untraced["events"], "us"
    )
    metrics["sim.peak_queue"] = _metric(untraced["peak_queue"], "entries")
    metrics["sim.procs_per_cell"] = _metric(
        folded["counts"]["procs"] / cells, "procs/cell"
    )
    metrics["atm.cells_built_per_cell"] = _metric(
        folded["counts"]["cells_built"] / cells, "cells/cell"
    )
    metrics["aal.crc_bytes_per_cell"] = _metric(
        traced["crc_bytes"] / cells, "bytes/cell"
    )
    metrics["analysis.goodput_err_pct"] = _metric(untraced["goodput_err_pct"], "%")
    traced_s = sum(traced["slice_seconds"][i] for i in PROFILED)
    untraced_s = sum(untraced["slice_seconds"][i] for i in PROFILED)
    metrics["bench.trace_overhead_x"] = _metric(traced_s / untraced_s, "x")
    metrics["bench.import_s"] = _metric(import_s, "s")
    return metrics


def _run_traced_child(args, deadline: float) -> Optional[Dict[str, Any]]:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--profile-child",
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
            check=False,
            text=True,
        )
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    workloads, import_s = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    if args.profile_child:
        result = traced_child(workloads, args)
        print(json.dumps(result, sort_keys=True))
        return 0

    untraced = run_once(workloads, args.workload, args.seed, args.seconds)
    correct = _ok(untraced)
    print(
        f"# {args.workload} seed={args.seed}: {untraced['cells']} cells in "
        f"{untraced['raw_measured_s']:.3f} host s "
        f"({untraced['measured_s']:.3f} reference s), "
        f"setup {untraced['raw_setup_s']:.3f} host s",
        flush=True,
    )
    print(f"# digest {untraced['digest']}", flush=True)
    if args.trace:
        traced = _run_traced_child(args, deadline)
        if traced is None:
            print("# traced run failed", file=sys.stderr)
            return 1
        shares = sum(traced["folded"]["self_pct"].values())
        correct = (
            correct
            and _ok(traced)
            and traced["digest"] == untraced["digest"]
            and traced["cells"] == untraced["cells"]
            and abs(shares - 100.0) < 1e-6
        )
        metrics = per_layer(untraced, traced, import_s)
    else:
        metrics = end_to_end(untraced)
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": untraced["attempted"],
                "failed": untraced["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

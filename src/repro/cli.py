"""Command-line entry point: regenerate evaluation tables and figures.

Usage::

    python -m repro --list
    python -m repro T1 F2 F3
    python -m repro --all
    python -m repro F7 --workers 4            # parallel sweep execution
    python -m repro bench --check             # baseline regression gate
    python -m repro trace f2 --out trace.json
    python -m repro lint --docs

Experiment ids come from
:data:`repro.results.experiments.EXPERIMENTS`.  Sweep-shaped
experiments (F6, T5, F7, R1, R2, C1, S1) run through
:mod:`repro.runner`: ``--workers N`` shards their points over a process
pool with results byte-identical to a serial run, and the
content-addressed ``.repro-cache/`` store skips points whose parameters
and sources are unchanged (``--no-cache`` bypasses it, ``--cache-dir``
relocates it, ``--log`` records the JSONL flight recorder).  The
``bench`` subcommand runs every experiment at its bench parameters and,
with ``--check``, gates the metrics and the paper claims against
committed baselines (see docs/RUNNER.md).  The ``trace`` subcommand
re-runs an experiment's scenario fully instrumented (see
:mod:`repro.obs`) and exports a Perfetto-loadable trace plus sampled
metrics.  The ``lint`` subcommand
runs ``simlint`` (see :mod:`repro.devtools` and
docs/STATIC_ANALYSIS.md), the repo's static-analysis pass over the
simulator's invariants.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.results.experiments import EXPERIMENTS, get


def describe() -> str:
    """The id/description table ``python -m repro --help`` embeds."""
    lines = [
        f"  {experiment_id:4s}{'*' if experiment.sweep else ' '} "
        f"{experiment.description}"
        for experiment_id, experiment in EXPERIMENTS.items()
    ]
    lines.append("  (* = sweep-shaped: honours --workers/--no-cache)")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-atm",
        description=(
            "Reproduction harness for 'A Host-Network Interface "
            "Architecture for ATM' (SIGCOMM '91)"
        ),
        epilog="experiments:\n" + describe(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to run (T1 T2 F2 ... F8)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="process-pool width for sweep-shaped experiments (0 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the .repro-cache result store",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-store location (default: .repro-cache)",
    )
    parser.add_argument(
        "--log",
        metavar="PATH",
        default=None,
        help="write sweep runs' JSONL log here",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        from repro.obs.runner import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.devtools.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.runner.bench import main as bench_main

        return bench_main(argv[1:])

    from repro.runner import ResultStore, RunLog

    args = build_parser().parse_args(argv)
    if args.list:
        for experiment_id, experiment in EXPERIMENTS.items():
            print(f"{experiment_id:4s} {experiment.description}")
        return 0
    ids = list(EXPERIMENTS) if args.all else [e.upper() for e in args.experiments]
    if not ids:
        build_parser().print_help()
        return 2
    store = None if args.no_cache else ResultStore(root=args.cache_dir)
    log = RunLog(args.log) if args.log is not None else None
    try:
        for experiment_id in ids:
            started = time.perf_counter()
            try:
                experiment = get(experiment_id)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            result = experiment(workers=args.workers, store=store, log=log)
            elapsed = time.perf_counter() - started
            print(result.to_text())
            print(f"  [{experiment_id.upper()} completed in {elapsed:.1f}s]")
            print()
    finally:
        if log is not None:
            log.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

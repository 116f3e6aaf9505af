"""Command-line entry point: regenerate evaluation tables and figures.

Usage::

    python -m repro --list
    python -m repro T1 F2 F3
    python -m repro --all
    python -m repro F7 --workers 4            # parallel sweep execution
    python -m repro R1 --trace r1.jsonl --metrics r1.csv --profile --audit
    python -m repro bench --check             # baseline regression gate
    python -m repro lint --docs

Experiment ids come from
:data:`repro.results.experiments.EXPERIMENTS`.  Sweep-shaped
experiments (F6, T5, F7, R1, R2, C1, S1) run through
:mod:`repro.runner`: ``--workers N`` shards their points over a process
pool with results byte-identical to a serial run, and the
content-addressed ``.repro-cache/`` store skips points whose parameters
and sources are unchanged (``--no-cache`` bypasses it, ``--cache-dir``
relocates it, ``--log`` records the JSONL flight recorder).

``--trace``, ``--metrics``, ``--profile`` and ``--audit`` observe the
real run instead: each id runs at its bench parameters, serially and
with no store, inside :func:`repro.obs.observe`, and every simulator it
builds is reported as ``<ID> #<n>`` -- one Perfetto process track, one
metrics section, one measured cycle-budget report and one conservation
ledger line each.

The ``bench`` subcommand runs every experiment at its bench parameters
and, with ``--check``, gates the metrics and the paper claims against
committed baselines (see docs/RUNNER.md).  The ``lint`` subcommand
runs ``simlint`` (see :mod:`repro.devtools` and
docs/STATIC_ANALYSIS.md), the repo's static-analysis pass over the
simulator's invariants.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

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
    observed = parser.add_argument_group(
        "observing the real run",
        "Any of these runs each id at its bench parameters, serially and "
        "with no result store, and reports every simulator it builds as "
        "<ID> #<n>.",
    )
    observed.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write every simulator's events: .jsonl = JSON lines, "
        "else Chrome/Perfetto JSON with one process per simulator",
    )
    observed.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write sampled metrics, one section per simulator: "
        ".csv = series CSV, else JSON",
    )
    observed.add_argument(
        "--profile",
        action="store_true",
        help="print each simulator's measured T1'/T2' cycle budgets",
    )
    observed.add_argument(
        "--audit",
        action="store_true",
        help="print each simulator's cell-conservation ledger; "
        "exit 1 on any residue",
    )
    return parser


def _ledger_line(view) -> "tuple[bool, str]":
    """(balanced, text) for one view's conservation ledger."""
    reason = view.ledger.unclosed
    if reason is not None:
        return True, f"not audited: {reason}"
    ledger = view.ledger.snapshot()
    if ledger.is_conserved:
        return True, f"ledger balanced: {ledger.offered} cells offered"
    return False, (
        f"ledger UNBALANCED: {ledger.unaccounted} of {ledger.offered} "
        "cells unaccounted"
    )


def _observe_ids(args: argparse.Namespace, ids: List[str]) -> int:
    """Run each id at its bench parameters inside ``observe()``."""
    from repro.obs import TraceWriter, observe

    trace_path = args.trace
    writer = (
        TraceWriter(trace_path, chrome=not trace_path.endswith(".jsonl"))
        if trace_path
        else None
    )
    sections: Dict[str, Any] = {}
    balanced = True
    try:
        for experiment_id in ids:
            experiment = get(experiment_id)
            started = time.perf_counter()
            with observe(trace=writer is not None) as observation:
                result = experiment(**experiment.bench)
            elapsed = time.perf_counter() - started
            print(result.to_text())
            print(
                f"  [{experiment_id} completed in {elapsed:.1f}s, "
                f"{len(observation.views)} simulator(s) observed]"
            )
            for n, view in enumerate(observation.views, 1):
                track = f"{experiment_id} #{n}"
                if writer is not None:
                    writer.add(track, view.recorder.exported())
                    over = view.recorder.overflow
                    print(
                        f"  {track}: {len(view.recorder)} events traced"
                        + (f", {over} more past the cap" if over else "")
                    )
                if args.metrics:
                    sections[track] = (
                        view.registry.to_csv()
                        if args.metrics.endswith(".csv")
                        else view.registry.to_document()
                    )
                if args.profile:
                    rendered = view.profiler.render()
                    if rendered:
                        print(f"  {track}: measured cycle budgets\n{rendered}")
                if args.audit:
                    ok, line = _ledger_line(view)
                    balanced = balanced and ok
                    print(f"  {track}: {line}")
            print()
    finally:
        if writer is not None:
            writer.close()
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            if args.metrics.endswith(".csv"):
                handle.write(
                    "".join(f"# {t}\n{text}" for t, text in sections.items())
                )
            else:
                json.dump(sections, handle, indent=2, sort_keys=True)
    return 0 if balanced else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from repro.devtools.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.runner.bench import main as bench_main

        return bench_main(argv[1:])

    from repro.runner import ResultStore, RunLog

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for experiment_id, experiment in EXPERIMENTS.items():
            print(f"{experiment_id:4s} {experiment.description}")
        return 0
    ids = list(EXPERIMENTS) if args.all else [e.upper() for e in args.experiments]
    if not ids:
        parser.print_help()
        return 2
    observing = args.trace or args.metrics or args.profile or args.audit
    if observing and args.workers > 0:
        parser.error("--workers cannot be combined with observation flags")
    for experiment_id in ids:
        try:
            get(experiment_id)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    if observing:
        return _observe_ids(args, ids)
    store = None if args.no_cache else ResultStore(root=args.cache_dir)
    log = RunLog(args.log) if args.log is not None else None
    try:
        for experiment_id in ids:
            started = time.perf_counter()
            result = get(experiment_id)(
                workers=args.workers, store=store, log=log
            )
            elapsed = time.perf_counter() - started
            print(result.to_text())
            print(f"  [{experiment_id} completed in {elapsed:.1f}s]")
            print()
    finally:
        if log is not None:
            log.close()
    return 0

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

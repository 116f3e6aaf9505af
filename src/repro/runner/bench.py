"""``python -m repro bench``: the paper-claim and regression gate.

Three modes over the experiments of
:data:`repro.results.experiments.EXPERIMENTS` (every id unless some are
named), each run at the bench parameters its entry declares:

- ``bench`` -- run them and print their metrics;
- ``bench --check`` -- additionally compare each canonical result
  exactly with the one committed in ``benchmarks/baselines/<ID>.json``,
  judge every named paper claim, and exit nonzero on any moved field or
  false claim (what CI keys on);
- ``bench --update`` -- regenerate the baseline files from the current
  tree (review the diff like any other code change).

Sweep-shaped experiments honour ``--workers`` and the result cache;
``--log`` writes the sweeps' JSONL flight recorder for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.results.experiments import EXPERIMENTS, canonical_result_json, get
from repro.runner.gate import Baseline, BaselineGate, GateReport
from repro.runner.store import ResultStore, RunLog


def default_baseline_dir() -> Path:
    """``benchmarks/baselines/`` at the repo root (resolved from here)."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "baselines"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-atm bench",
        description=(
            "Run the experiments at their bench parameters and gate "
            "their results and paper claims against committed baselines"
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to bench (default: all of them)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare exactly with committed baselines; exit 1 on any change",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline files from this run",
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
        "--baseline-dir",
        metavar="DIR",
        default=None,
        help="baseline directory (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--log",
        metavar="PATH",
        default=None,
        help="write the sweeps' JSONL run log here",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        list(sys.argv[1:] if argv is None else argv)
    )
    if args.check and args.update:
        print("--check and --update are mutually exclusive", file=sys.stderr)
        return 2
    ids = [i.upper() for i in args.experiments] or list(EXPERIMENTS)
    try:
        experiments = {i: get(i) for i in ids}
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    gate = BaselineGate(
        Path(args.baseline_dir)
        if args.baseline_dir is not None
        else default_baseline_dir()
    )
    store = (
        None if args.no_cache else ResultStore(root=args.cache_dir)
    )
    log = RunLog(args.log) if args.log is not None else None
    reports: Dict[str, GateReport] = {}
    missing: List[str] = []
    try:
        for experiment_id, experiment in experiments.items():
            if args.check and not gate.path_for(experiment_id).exists():
                missing.append(experiment_id)
                print(
                    f"{experiment_id}: no baseline at "
                    f"{gate.path_for(experiment_id)} "
                    "(run bench --update and commit it)"
                )
                continue
            result = experiment(
                workers=args.workers, store=store, log=log, **experiment.bench
            )
            document = json.loads(canonical_result_json(result))
            if args.check:
                report = gate.compare(
                    experiment_id, document, experiment.claims(result)
                )
                reports[experiment_id] = report
                print(f"{experiment_id}:")
                print(report.format())
            elif args.update:
                path = gate.write(
                    Baseline(
                        experiment=experiment_id,
                        claims=list(experiment.claims(result)),
                        note=experiment.description,
                        result=document,
                    )
                )
                print(f"{experiment_id}: wrote {path}")
            else:
                print(f"{experiment_id}:")
                for name, value in sorted(result.metrics.items()):
                    print(f"  {name} = {value:.6g}")
    finally:
        if log is not None:
            log.close()

    if args.check:
        merged = gate.merge(reports)
        print(merged.verdict)
        if missing:
            print(f"bench gate: FAIL (no baseline for {', '.join(missing)})")
        return 0 if merged.ok and not missing else 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

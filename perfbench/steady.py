"""Steadiness mode: run one workload N times, each in a fresh process.

Run from the root of a checkout::

    python3 perfbench/steady.py --workload bulk --runs 10 --seconds 15
    python3 perfbench/steady.py --workload churn --runs 2 --seed 7 --trace 1

Seeds are 1, 2, ..., N unless ``--seed`` pins one seed for every run.
Runs are sequential, never concurrent.  For each metric it prints the
median, the quartiles (Python's ``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median.  With one pinned seed it also reports whether the digest and
each metric repeated exactly, which the digest and the count metrics
must.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 600


def one_run(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=RUN_TIMEOUT_S,
        check=False,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {proc.returncode}): {' '.join(command)}")
    result = json.loads(lines[-1])
    result["digest"] = next(
        (line.split()[-1] for line in lines if line.startswith("# digest ")), None
    )
    return result


def summarise(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=None, help="pin one seed")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    results = []
    for index in range(args.runs):
        seed = args.seed if args.seed is not None else index + 1
        result = one_run(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print(
            f"run {index + 1}/{args.runs} seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']} "
            + " ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in sorted(result["metrics"].items())
            ),
            flush=True,
        )

    summary: Dict[str, Any] = {
        "workload": args.workload,
        "runs": args.runs,
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in results),
        "metrics": {},
    }
    names = sorted(results[0]["metrics"])
    print(f"\n{'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        stats = summarise(values)
        if args.seed is not None:
            stats["repeats_exactly"] = len(set(values)) == 1
        summary["metrics"][name] = stats
        print(
            f"{name:<30} {stats['median']:>14.6g} {stats['q1']:>14.6g} "
            f"{stats['q3']:>14.6g} {stats['spread']:>8.2%}"
            + ("  (exact)" if stats.get("repeats_exactly") else "")
        )
    if args.seed is not None:
        summary["digest_repeats"] = len({r["digest"] for r in results}) == 1
        print(f"digest repeats exactly: {summary['digest_repeats']}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

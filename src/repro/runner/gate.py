"""Baseline regression gate: committed canonical results vs the current tree.

A *baseline* is a committed JSON file under ``benchmarks/baselines/``
holding one experiment's canonical result at a known-good tree (the
document :func:`repro.results.experiments.canonical_result_json`
writes), the names of its paper claims, and a note::

    {
      "experiment": "F7",
      "claims": ["rx runs STS-3c by 16 MHz", ...],
      "note": "F7: how fast must the engines be for each link rate?",
      "result": {"experiment_id": "F7", "headers": [...], "metrics": {...},
                 "notes": [...], "rows": [...], "series": {...}, "title": "..."}
    }

``python -m repro bench --check`` runs each experiment at the bench
parameters its table entry declares and compares the run's canonical
result with ``result`` exactly: every row cell, series value, metric,
label and note must have the same JSON text as the committed one (so
NaN matches NaN, and ``1`` does not match ``1.0``).  Each field that
moved, or that one side lacks, is reported as ``path: baseline -> run``.
Every claim the run states must hold, and a claim the baseline names
but the run no longer states fails, so a claim cannot be dropped
without a visible baseline diff.  Any failure makes the gate exit
nonzero, which is what CI keys on.

``python -m repro bench --update`` regenerates the files from the
current tree, one value per line, so a moved number is one diff line.
The note (the run function's docstring headline) is for the reader and
is not compared.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Stands in for a key or an index one side of a comparison lacks.
_MISSING = object()


@dataclass(frozen=True)
class Baseline:
    """One experiment's committed canonical result and claim names."""

    experiment: str
    #: Names of the experiment's paper claims.
    claims: Sequence[str]
    note: str
    #: The canonical result document (``json.loads`` of
    #: ``canonical_result_json``).
    result: Mapping[str, Any]


def moved_fields(baseline: Any, run: Any, path: str = "") -> List[str]:
    """Every field where *run* differs from *baseline*, in key order.

    Objects are compared key by key and lists index by index, so a
    field is named by its path (``series.columns.tx_mbps[2]``); a leaf
    matches only if its JSON text does.  Each difference reads
    ``path: baseline -> run``, with ``missing`` for the side that lacks
    the field.
    """
    if isinstance(baseline, dict) and isinstance(run, dict):
        return [
            line
            for key in sorted(baseline.keys() | run.keys())
            for line in moved_fields(
                baseline.get(key, _MISSING),
                run.get(key, _MISSING),
                f"{path}.{key}" if path else key,
            )
        ]
    if isinstance(baseline, list) and isinstance(run, list):
        return [
            line
            for i in range(max(len(baseline), len(run)))
            for line in moved_fields(
                baseline[i] if i < len(baseline) else _MISSING,
                run[i] if i < len(run) else _MISSING,
                f"{path}[{i}]",
            )
        ]
    if _text(baseline) == _text(run):
        return []
    return [f"{path}: {_text(baseline)} -> {_text(run)}"]


def _text(value: Any) -> str:
    return "missing" if value is _MISSING else json.dumps(value, sort_keys=True)


@dataclass(frozen=True)
class ClaimCheck:
    """One named paper claim and whether the run upheld it."""

    experiment: str
    name: str
    held: bool
    detail: str = ""

    def format(self) -> str:
        mark = "ok  " if self.held else "FAIL"
        return f"  [{mark}] {self.experiment} claim: {self.name}" + (
            f" ({self.detail})" if self.detail else ""
        )


@dataclass
class GateReport:
    """Every comparison the gate made, plus the aggregate verdict."""

    #: Experiment id -> the fields of its result that moved (empty when
    #: the run reproduced its baseline exactly).
    moved: Dict[str, List[str]] = field(default_factory=dict)
    claims: List[ClaimCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(self.moved.values()) and all(c.held for c in self.claims)

    @property
    def verdict(self) -> str:
        if self.ok:
            return "bench gate: PASS"
        moved = sum(len(fields) for fields in self.moved.values())
        false_claims = sum(not c.held for c in self.claims)
        return (
            f"bench gate: FAIL ({moved} result field(s) moved, "
            f"{false_claims} claim(s) false)"
        )

    def format(self) -> str:
        lines = []
        for experiment_id, fields in self.moved.items():
            if fields:
                lines.append(
                    f"  [FAIL] {experiment_id} result: {len(fields)} field(s) moved"
                )
                lines += [f"    {line}" for line in fields]
            else:
                lines.append(f"  [ok  ] {experiment_id} result: as committed")
        lines += [c.format() for c in self.claims]
        lines.append(self.verdict)
        return "\n".join(lines)


class BaselineGate:
    """Loads committed baselines and judges runs against them."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def path_for(self, experiment_id: str) -> Path:
        return self.directory / f"{experiment_id.upper()}.json"

    def known(self) -> List[str]:
        """Experiment ids with a committed baseline, sorted."""
        if not self.directory.exists():
            return []
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def load(self, experiment_id: str) -> Baseline:
        return Baseline(
            **json.loads(self.path_for(experiment_id).read_text(encoding="utf-8"))
        )

    def write(self, baseline: Baseline) -> Path:
        path = self.path_for(baseline.experiment)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(asdict(baseline), indent=2) + "\n", encoding="utf-8"
        )
        return path

    def compare(
        self,
        experiment_id: str,
        result: Mapping[str, Any],
        claims: Optional[Mapping[str, bool]] = None,
    ) -> GateReport:
        """Judge one run's canonical result and claims against its baseline."""
        baseline = self.load(experiment_id)
        claims = dict(claims or {})
        return GateReport(
            moved={experiment_id: moved_fields(baseline.result, result)},
            claims=[
                ClaimCheck(experiment_id, name, bool(held))
                for name, held in claims.items()
            ]
            + [
                ClaimCheck(experiment_id, name, False, "claim missing from run")
                for name in baseline.claims
                if name not in claims
            ],
        )

    def merge(self, reports: Mapping[str, GateReport]) -> GateReport:
        """Flatten per-experiment reports into one aggregate."""
        merged = GateReport()
        for _, report in sorted(reports.items()):
            merged.moved.update(report.moved)
            merged.claims.extend(report.claims)
        return merged

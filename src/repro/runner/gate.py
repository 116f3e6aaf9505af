"""Baseline regression gates: committed curves vs the current tree.

A *baseline* is a committed JSON file under ``benchmarks/baselines/``
recording the scalar metrics one experiment produced at a known-good
tree, per-metric tolerance bands, and the names of its paper claims::

    {
      "experiment": "F7",
      "metrics": {"rx_mhz_for_oc12": 33.0, ...},
      "tolerance": {
        "default": {"rel": 0.01, "abs": 1e-09},
        "per_metric": {"rx_mhz_for_oc12": {"rel": 0.0, "abs": 0.0}}
      },
      "claims": ["rx runs STS-3c by 16 MHz", ...],
      "note": "..."
    }

``python -m repro bench --check`` runs each experiment at the bench
parameters its table entry declares and compares metric by metric: a
run value ``v`` passes against baseline ``b`` iff
``|v - b| <= abs + rel * |b|`` (NaN passes only against NaN; a metric
missing from the run fails; a metric the run grew that the baseline
lacks is reported but does not fail -- new metrics are not
regressions).  Every claim the run states must hold, and a claim the
baseline names but the run no longer states fails, so a claim cannot
be dropped without a visible baseline diff.  Any failure makes the
gate exit nonzero, which is what CI keys on.

``python -m repro bench --update`` regenerates the files, seeding the
repo's bench trajectory at the current tree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Tolerances used when a baseline does not spell its own out.  The
#: simulations are deterministic pure-Python float arithmetic, so the
#: bands exist to absorb deliberate small model refinements, not noise.
DEFAULT_REL_TOL = 0.01
DEFAULT_ABS_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """One metric's acceptance band: ``abs + rel * |baseline|``."""

    rel: float = DEFAULT_REL_TOL
    abs: float = DEFAULT_ABS_TOL

    def allows(self, baseline: float, value: float) -> bool:
        if math.isnan(baseline) or math.isnan(value):
            return math.isnan(baseline) and math.isnan(value)
        if math.isinf(baseline) or math.isinf(value):
            return baseline == value
        return abs(value - baseline) <= self.abs + self.rel * abs(baseline)


@dataclass(frozen=True)
class Baseline:
    """One experiment's committed reference metrics."""

    experiment: str
    metrics: Mapping[str, float]
    default_tolerance: Tolerance = Tolerance()
    per_metric: Mapping[str, Tolerance] = field(default_factory=dict)
    #: Names of the experiment's paper claims.
    claims: Sequence[str] = ()
    note: str = ""

    def tolerance_for(self, metric: str) -> Tolerance:
        return self.per_metric.get(metric, self.default_tolerance)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Baseline":
        tolerance = payload.get("tolerance", {})
        default = Tolerance(**tolerance.get("default", {}))
        per_metric = {
            name: Tolerance(**band)
            for name, band in tolerance.get("per_metric", {}).items()
        }
        return cls(
            experiment=payload["experiment"],
            metrics=dict(payload["metrics"]),
            default_tolerance=default,
            per_metric=per_metric,
            claims=list(payload.get("claims", [])),
            note=payload.get("note", ""),
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "metrics": dict(sorted(self.metrics.items())),
            "tolerance": {
                "default": {
                    "rel": self.default_tolerance.rel,
                    "abs": self.default_tolerance.abs,
                },
                "per_metric": {
                    name: {"rel": band.rel, "abs": band.abs}
                    for name, band in sorted(self.per_metric.items())
                },
            },
            "claims": list(self.claims),
            "note": self.note,
        }


@dataclass
class Deviation:
    """One compared metric and its verdict."""

    experiment: str
    metric: str
    baseline: Optional[float]
    value: Optional[float]
    tolerance: Optional[Tolerance]
    ok: bool
    detail: str = ""

    def format(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return (
            f"  [{mark}] {self.experiment}.{self.metric}: "
            f"baseline={_fmt(self.baseline)} run={_fmt(self.value)}"
            + (f" ({self.detail})" if self.detail else "")
        )


def _fmt(value: Optional[float]) -> str:
    return "missing" if value is None else f"{value:.6g}"


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

    deviations: List[Deviation] = field(default_factory=list)
    claims: List[ClaimCheck] = field(default_factory=list)
    #: Metrics the run grew that no baseline records (informational).
    new_metrics: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and all(c.held for c in self.claims)

    @property
    def failures(self) -> List[Deviation]:
        return [d for d in self.deviations if not d.ok]

    def format(self) -> str:
        lines = [d.format() for d in self.deviations]
        lines += [c.format() for c in self.claims]
        if self.new_metrics:
            lines.append(
                "  note: run metrics with no baseline (not gated): "
                + ", ".join(sorted(self.new_metrics))
            )
        false_claims = sum(not c.held for c in self.claims)
        verdict = (
            "bench gate: PASS"
            if self.ok
            else f"bench gate: FAIL ({len(self.failures)} metric(s) out of "
            f"band, {false_claims} claim(s) false)"
        )
        lines.append(verdict)
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
        payload = json.loads(
            self.path_for(experiment_id).read_text(encoding="utf-8")
        )
        return Baseline.from_payload(payload)

    def write(self, baseline: Baseline) -> Path:
        path = self.path_for(baseline.experiment)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(baseline.to_payload(), indent=2, sort_keys=False)
            + "\n",
            encoding="utf-8",
        )
        return path

    def compare(
        self,
        experiment_id: str,
        metrics: Mapping[str, float],
        claims: Optional[Mapping[str, bool]] = None,
    ) -> GateReport:
        """Judge one run's metrics and claims against its baseline."""
        baseline = self.load(experiment_id)
        claims = dict(claims or {})
        report = GateReport()
        for name, expected in sorted(baseline.metrics.items()):
            band = baseline.tolerance_for(name)
            if name not in metrics:
                report.deviations.append(
                    Deviation(
                        experiment=experiment_id,
                        metric=name,
                        baseline=expected,
                        value=None,
                        tolerance=band,
                        ok=False,
                        detail="metric missing from run",
                    )
                )
                continue
            value = float(metrics[name])
            ok = band.allows(float(expected), value)
            detail = ""
            if not ok:
                detail = (
                    f"|delta|={abs(value - expected):.6g} > "
                    f"{band.abs:.3g}+{band.rel:.3g}*|baseline|"
                )
            report.deviations.append(
                Deviation(
                    experiment=experiment_id,
                    metric=name,
                    baseline=float(expected),
                    value=value,
                    tolerance=band,
                    ok=ok,
                    detail=detail,
                )
            )
        report.new_metrics = [
            name for name in metrics if name not in baseline.metrics
        ]
        report.claims = [
            ClaimCheck(experiment_id, name, bool(held))
            for name, held in claims.items()
        ] + [
            ClaimCheck(experiment_id, name, False, "claim missing from run")
            for name in baseline.claims
            if name not in claims
        ]
        return report

    def merge(self, reports: Mapping[str, GateReport]) -> GateReport:
        """Flatten per-experiment reports into one aggregate."""
        merged = GateReport()
        for _, report in sorted(reports.items()):
            merged.deviations.extend(report.deviations)
            merged.claims.extend(report.claims)
            merged.new_metrics.extend(report.new_metrics)
        return merged

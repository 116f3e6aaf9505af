"""Structured lint findings and their text/JSON renderings.

A :class:`Finding` is one rule violation pinned to a file and line;
the reporters keep a stable, machine-consumable shape so CI can diff
reports across runs and upload them as artifacts.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable


class Severity(enum.Enum):
    """How bad a finding is; each value is also its SARIF result level."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  #: stable rule id, e.g. ``SL101``
    severity: Severity
    path: str  #: path relative to the lint root
    line: int  #: 1-based line of the offending node
    message: str  #: what is wrong, in one sentence
    hint: str = ""  #: how to fix it (or how to suppress, with a reason)
    data: Dict[str, Any] = field(default_factory=dict)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.hint:
            record["hint"] = self.hint
        if self.data:
            record["data"] = self.data
        return record

    def format(self) -> str:
        text = (
            f"{self.path}:{self.line}: {self.rule} "
            f"[{self.severity.value}] {self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def render_text(findings: Iterable[Finding]) -> str:
    """Human-readable report, one block per finding, sorted by location."""
    ordered = sorted(findings, key=Finding.sort_key)
    if not ordered:
        return "simlint: clean"
    lines = [finding.format() for finding in ordered]
    by_rule: Dict[str, int] = {}
    for finding in ordered:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    tally = ", ".join(f"{rule} x{n}" for rule, n in sorted(by_rule.items()))
    lines.append(f"\nsimlint: {len(ordered)} finding(s) ({tally})")
    return "\n".join(lines)


def render_json(
    findings: Iterable[Finding], root: str = "", extra: Dict[str, Any] | None = None
) -> str:
    """Machine-readable report (the CI artifact format)."""
    ordered = sorted(findings, key=Finding.sort_key)
    by_rule: Dict[str, int] = {}
    for finding in ordered:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    document: Dict[str, Any] = {
        "tool": "simlint",
        "version": 1,
        "root": root,
        "findings": [finding.to_dict() for finding in ordered],
        "summary": {"total": len(ordered), "by_rule": by_rule},
    }
    if extra:
        document.update(extra)
    return json.dumps(document, indent=2, sort_keys=True)


def render_sarif(
    findings: Iterable[Finding],
    root: str = "",
    path_prefix: str = "",
    rule_titles: Dict[str, str] | None = None,
) -> str:
    """SARIF 2.1.0 report, the GitHub code-scanning upload format.

    *path_prefix* (e.g. ``src/repro``) is prepended to every finding
    path so locations are repository-relative, which is what the
    code-scanning annotator expects; *rule_titles* supplies the
    ``shortDescription`` per rule id (the CLI passes the registry).
    *root* is unused by consumers but recorded as a run property so a
    report can be traced back to the tree it linted.
    """
    ordered = sorted(findings, key=Finding.sort_key)
    titles = rule_titles or {}
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": titles.get(rule_id, rule_id)},
        }
        for rule_id in sorted({finding.rule for finding in ordered})
    ]
    results = []
    for finding in ordered:
        uri = (
            f"{path_prefix.rstrip('/')}/{finding.path}"
            if path_prefix
            else finding.path
        )
        text = finding.message
        if finding.hint:
            text += f" (hint: {finding.hint})"
        results.append(
            {
                "ruleId": finding.rule,
                "level": finding.severity.value,
                "message": {"text": text},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": uri},
                            "region": {"startLine": finding.line},
                        }
                    }
                ],
            }
        )
    document: Dict[str, Any] = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "version": "1",
                        "rules": rules,
                    }
                },
                "properties": {"root": root},
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)

"""The simlint driver: collect files, run rules, apply suppressions.

:func:`lint_paths` is the programmatic entry point; the CLI in
:mod:`repro.devtools.cli` is a thin argument parser around it.  The
driver parses each module once, hands the tree to every selected
rule, filters the findings through the file's suppression directives,
and reports stale directives last.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from repro.devtools.findings import Finding, Severity
from repro.devtools.rules import RULE_REGISTRY, ModuleContext, register_rule
from repro.devtools.suppress import SuppressionIndex, matches

# Importing a rule module registers its rules; this list is the
# extension point for new families (see docs/STATIC_ANALYSIS.md).
from repro.devtools import (  # noqa: F401  (imported for registration)
    rules_costmodel,
    rules_determinism,
    rules_parallel,
    rules_simtime,
)


@register_rule(
    "SL000",
    "SL0 meta",
    "file does not parse",
    hint="simlint needs a syntactically valid module",
)
def _parse_error_placeholder(ctx: ModuleContext) -> None:
    """Registered for id/severity only; the driver reports SL000 itself."""


@register_rule(
    "SL001",
    "SL0 meta",
    "suppression directive that never fires",
    severity=Severity.WARNING,
    hint="delete the stale '# simlint: disable' comment",
)
def _unused_suppression_placeholder(ctx: ModuleContext) -> None:
    """Registered for id/severity only; the driver reports SL001 itself."""


_META_RULES = {"SL000", "SL001"}


@dataclass
class LintResult:
    """Everything one lint run produced."""

    root: str
    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
                and not any(part.endswith(".egg-info") for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def _relative_to_root(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _selected_rules(rule_filter: Optional[Iterable[str]]) -> Set[str]:
    if not rule_filter:
        return set(RULE_REGISTRY)
    tokens = [token.strip() for token in rule_filter if token.strip()]
    selected = {
        rule_id
        for rule_id in RULE_REGISTRY
        if any(matches(token, rule_id) for token in tokens)
    }
    return selected | _META_RULES


def _parse_failure(path_relative: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="SL000",
        severity=Severity.ERROR,
        path=path_relative,
        line=exc.lineno or 1,
        message=f"syntax error: {exc.msg}",
        hint=RULE_REGISTRY["SL000"].hint,
    )


def _unused_finding(path_relative: str, line: int, rules: Set[str]) -> Finding:
    return Finding(
        rule="SL001",
        severity=Severity.WARNING,
        path=path_relative,
        line=line,
        message=(
            f"suppression for {', '.join(sorted(rules))} never fired"
        ),
        hint=RULE_REGISTRY["SL001"].hint,
    )


def lint_paths(
    paths: Sequence[str | Path],
    rules: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every ``.py`` file under *paths*.

    The first directory argument (or the first file's parent) anchors
    relative paths in findings and path-scoped rules, which is the
    right thing both for ``src/repro`` and for the fixture corpus.
    """
    resolved = [Path(p) for p in paths]
    first = resolved[0]
    root_path = first if first.is_dir() else first.parent
    selected = _selected_rules(rules)
    checks = [
        rule.check
        for rule_id, rule in RULE_REGISTRY.items()
        if rule_id in selected and rule_id not in _META_RULES
    ]
    result = LintResult(root=str(root_path))

    for path in _collect_files(resolved):
        result.files_scanned += 1
        relative = _relative_to_root(path, root_path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            result.findings.append(_parse_failure(relative, exc))
            continue
        context = ModuleContext(path=relative, tree=tree)
        for check in checks:
            check(context)
        index = SuppressionIndex(source)
        result.findings.extend(
            finding
            for finding in context.findings
            if not index.is_suppressed(finding.rule, finding.line)
        )
        if "SL001" in selected:
            result.findings.extend(
                _unused_finding(relative, suppression.line, suppression.rules)
                for suppression in index.unused()
            )

    result.findings.sort(key=Finding.sort_key)
    return result

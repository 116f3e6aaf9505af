"""The simlint driver: collect files, run rules, apply suppressions.

:func:`lint_paths` is the programmatic entry point; the CLI in
:mod:`repro.devtools.cli` is a thin argument parser around it.  The
driver parses each module once, hands the tree to every selected
module-scoped rule, then builds a project-wide
:class:`~repro.devtools.project.ProjectIndex` over all parsed trees
and runs the project-scoped rules (the SL204 budget cross-check) once.  Every finding -- module or project -- is then filtered
through its file's suppression directives, and stale directives are
reported last so a suppression consumed by a project rule is never
also flagged as unused.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.devtools.project import ProjectIndex
from repro.devtools.findings import Finding, Severity
from repro.devtools.model import RepoModel, build_model
from repro.devtools.rules import (
    RULE_REGISTRY,
    ModuleContext,
    ProjectContext,
    register_rule,
)
from repro.devtools.suppress import SuppressionIndex

# Importing a rule module registers its rules; this list is the
# extension point for new families (see docs/STATIC_ANALYSIS.md).
from repro.devtools import (  # noqa: F401  (imported for registration)
    rules_costmodel,
    rules_determinism,
    rules_hooks,
    rules_parallel,
    rules_simtime,
    rules_taxonomy,
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
    suppressions_used: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.clean else 1


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
    selected: Set[str] = set()
    for token in rule_filter:
        token = token.strip().upper()
        if not token:
            continue
        for rule_id in RULE_REGISTRY:
            if rule_id == token or (
                rule_id.startswith(token) and len(token) < len(rule_id)
            ):
                selected.add(rule_id)
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


def lint_file(
    path: Path,
    root: Path,
    model: RepoModel,
    selected: Optional[Set[str]] = None,
) -> List[Finding]:
    """Lint one module with the module-scoped rules only.

    Kept as the single-file API (used by tests and tooling); the
    project-scoped rules need the whole tree and therefore only run
    under :func:`lint_paths`.
    """
    if selected is None:
        selected = set(RULE_REGISTRY)
    relative = _relative_to_root(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [_parse_failure(relative, exc)]

    context = ModuleContext(
        path=relative, tree=tree, source=source, model=model
    )
    for rule_id, rule in RULE_REGISTRY.items():
        if rule_id in _META_RULES or rule_id not in selected:
            continue
        if rule.scope != "module":
            continue
        rule.check(context)

    index = SuppressionIndex(source)
    kept = [
        finding
        for finding in context.findings
        if not index.is_suppressed(finding.rule, finding.line)
    ]
    if "SL001" in selected:
        for suppression in index.unused():
            kept.append(
                _unused_finding(relative, suppression.line, suppression.rules)
            )
    return kept


def lint_paths(
    paths: Sequence[str | Path],
    root: Optional[str | Path] = None,
    rules: Optional[Iterable[str]] = None,
    restrict_to: Optional[Set[Path]] = None,
) -> LintResult:
    """Lint every ``.py`` file under *paths*.

    *root* anchors relative paths in findings and path-scoped rules;
    it defaults to the first directory argument (or the first file's
    parent), which is the right thing both for ``src/repro`` and for
    the fixture corpus.

    *restrict_to* (absolute, resolved paths) keeps only findings whose
    file is in the set -- the whole tree is still parsed and analysed,
    because the project-scoped rules need the full call graph, but
    only the named files are reported (``repro lint --changed``).
    """
    resolved = [Path(p) for p in paths]
    if root is None:
        first = resolved[0]
        root_path = first if first.is_dir() else first.parent
    else:
        root_path = Path(root)
    model = build_model(root_path)
    selected = _selected_rules(rules)
    result = LintResult(root=str(root_path))

    raw: List[Finding] = []  #: pre-suppression rule findings
    meta: List[Finding] = []  #: SL000 -- never suppressible
    trees: Dict[str, ast.Module] = {}
    suppressions: Dict[str, SuppressionIndex] = {}
    absolute: Dict[str, Path] = {}

    for path in _collect_files(resolved):
        result.files_scanned += 1
        relative = _relative_to_root(path, root_path)
        absolute[relative] = path.resolve()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            meta.append(_parse_failure(relative, exc))
            continue
        context = ModuleContext(
            path=relative, tree=tree, source=source, model=model
        )
        for rule_id, rule in RULE_REGISTRY.items():
            if rule_id in _META_RULES or rule_id not in selected:
                continue
            if rule.scope != "module":
                continue
            rule.check(context)
        raw.extend(context.findings)
        trees[relative] = tree
        suppressions[relative] = SuppressionIndex(source)

    project_rules = [
        rule
        for rule in RULE_REGISTRY.values()
        if rule.scope == "project" and rule.id in selected
    ]
    if project_rules and trees:
        project = ProjectContext(index=ProjectIndex.build(trees), model=model)
        for rule in project_rules:
            rule.check(project)
        raw.extend(project.findings)

    kept = list(meta)
    for finding in raw:
        index = suppressions.get(finding.path)
        if index is not None and index.is_suppressed(finding.rule, finding.line):
            result.suppressions_used += 1
            continue
        kept.append(finding)
    if "SL001" in selected:
        for relative in suppressions:
            for suppression in suppressions[relative].unused():
                kept.append(
                    _unused_finding(
                        relative, suppression.line, suppression.rules
                    )
                )

    if restrict_to is not None:
        reported = {
            relative
            for relative, path in absolute.items()
            if path in restrict_to
        }
        kept = [finding for finding in kept if finding.path in reported]

    result.findings = sorted(kept, key=Finding.sort_key)
    return result

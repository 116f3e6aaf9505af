"""Rule protocol, registry, and shared AST helpers.

A rule is a named check over one module's AST.  Rules self-register
into :data:`RULE_REGISTRY` at import time via :func:`register_rule`,
which is also the extension point: a new rule family is a new module
that registers its rules and is imported by
:mod:`repro.devtools.linter` (see docs/STATIC_ANALYSIS.md, "adding a
rule").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.devtools.findings import Finding, Severity


@dataclass
class ModuleContext:
    """Everything a rule may look at while checking one file."""

    path: str  #: posix path relative to the lint root
    tree: ast.Module
    findings: List[Finding] = field(default_factory=list)
    _imports: Optional[Dict[str, str]] = None

    def report(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        hint: str = "",
        **data: Any,
    ) -> None:
        rule = RULE_REGISTRY[rule_id]
        self.findings.append(
            Finding(
                rule=rule.id,
                severity=rule.severity,
                path=self.path,
                line=getattr(node, "lineno", 1),
                message=message,
                hint=hint or rule.hint,
                data=data,
            )
        )

    def in_paths(self, *prefixes: str) -> bool:
        """Is this module under one of the given tree prefixes?"""
        return any(
            self.path.startswith(prefix) or f"/{prefix}" in f"/{self.path}"
            for prefix in prefixes
        )

    # -- import resolution -------------------------------------------------

    @property
    def imports(self) -> Dict[str, str]:
        """Local name -> dotted origin, for every import in the module.

        ``import random as r`` maps ``r -> random``; ``from os import
        urandom`` maps ``urandom -> os.urandom``.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        table[alias.asname or alias.name.split(".")[0]] = (
                            alias.name
                        )
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        table[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
            self._imports = table
        return self._imports

    def resolve_call(self, func: ast.expr) -> str:
        """Dotted path of a call target with import aliases expanded.

        ``r.Random`` (after ``import random as r``) resolves to
        ``random.Random``; unresolvable shapes return ``""``.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ""
        origin = self.imports.get(node.id, node.id)
        parts.append(origin)
        return ".".join(reversed(parts))


#: A check inspects one module and reports through its context.
CheckFunction = Callable[[ModuleContext], None]


@dataclass(frozen=True)
class Rule:
    """One registered check."""

    id: str  #: e.g. ``SL101``
    family: str  #: e.g. ``SL1 determinism``
    title: str
    severity: Severity
    hint: str
    check: CheckFunction


#: id -> rule, in registration order (dicts preserve it).
RULE_REGISTRY: Dict[str, Rule] = {}


def register_rule(
    rule_id: str,
    family: str,
    title: str,
    severity: Severity = Severity.ERROR,
    hint: str = "",
) -> Callable[[CheckFunction], CheckFunction]:
    """Decorator: register *check* under *rule_id*."""

    def wrap(check: CheckFunction) -> CheckFunction:
        if rule_id in RULE_REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULE_REGISTRY[rule_id] = Rule(
            id=rule_id,
            family=family,
            title=title,
            severity=severity,
            hint=hint,
            check=check,
        )
        return check

    return wrap


# ---------------------------------------------------------------------------
# shared AST predicates
# ---------------------------------------------------------------------------


def numeric_literals(node: ast.expr) -> List[ast.Constant]:
    """Non-zero int/float literals anywhere inside an expression.

    Zero is exempt everywhere: charging zero cycles is the idiom for
    "this operation is a hardware assist in this configuration".
    """
    literals = []
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Constant)
            and isinstance(child.value, (int, float))
            and not isinstance(child.value, bool)
            and child.value != 0
        ):
            literals.append(child)
    return literals

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
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.devtools.findings import Finding, Severity
from repro.devtools.model import RepoModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.devtools.project import ProjectIndex


@dataclass
class ModuleContext:
    """Everything a rule may look at while checking one file."""

    path: str  #: posix path relative to the lint root
    tree: ast.Module
    source: str
    model: RepoModel
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


@dataclass
class ProjectContext:
    """What a project-scoped rule may look at: the whole linted tree.

    Built once per lint run after every module parsed; project rules
    (``scope="project"``) receive it instead of a
    :class:`ModuleContext`.
    """

    index: "ProjectIndex"
    model: RepoModel
    findings: List[Finding] = field(default_factory=list)

    def report(
        self,
        rule_id: str,
        path: str,
        line: int,
        message: str,
        hint: str = "",
        **data: Any,
    ) -> None:
        rule = RULE_REGISTRY[rule_id]
        self.findings.append(
            Finding(
                rule=rule.id,
                severity=rule.severity,
                path=path,
                line=line,
                message=message,
                hint=hint or rule.hint,
                data=data,
            )
        )


#: A check is ``Callable[[ModuleContext], None]`` for module-scoped
#: rules and ``Callable[[ProjectContext], None]`` for project-scoped
#: ones; the registry stores both behind one loose signature.
CheckFunction = Callable[..., None]


@dataclass(frozen=True)
class Rule:
    """One registered check."""

    id: str  #: e.g. ``SL101``
    family: str  #: e.g. ``SL1 determinism``
    title: str
    severity: Severity
    hint: str
    check: CheckFunction
    scope: str = "module"  #: ``"module"`` or ``"project"``


#: id -> rule, in registration order (dicts preserve it).
RULE_REGISTRY: Dict[str, Rule] = {}


def register_rule(
    rule_id: str,
    family: str,
    title: str,
    severity: Severity = Severity.ERROR,
    hint: str = "",
    scope: str = "module",
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
            scope=scope,
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


def terminal_attribute(expr: ast.expr) -> str:
    """The last name in ``a.b.c`` / ``c`` shapes, else ``""``."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def string_arg(call: ast.Call, position: int, keyword: str) -> Optional[str]:
    """A literal string argument by position or keyword, else None."""
    if len(call.args) > position:
        candidate = call.args[position]
        if isinstance(candidate, ast.Constant) and isinstance(
            candidate.value, str
        ):
            return candidate.value
        return None
    for kw in call.keywords:
        if kw.arg == keyword:
            if isinstance(kw.value, ast.Constant) and isinstance(
                kw.value.value, str
            ):
                return kw.value.value
            return None
    return None

"""SL2 -- cost-model conformance: no magic cycle numbers.

Davie's evaluation is an accounting argument: every engine cycle in
the T1/T2 tables traces to a named per-operation budget, and the
simulation's claim to reproduce the paper rests on charging *exactly*
those budgets.  A literal ``yield clock.work(16, ...)`` is a number
with no provenance -- if the cost table changes, the call site
silently diverges from the tables the CLI prints.  Cycle expressions
at charge sites must therefore be built from named
:mod:`repro.nic.costs` fields (or other named constants); the same
goes for the per-operation maps handed to the cycle profiler.

**SL204** is the project-wide sibling: the cost fields charged at
engine-clock sites are cross-checked *both ways* against the T1/T2
``breakdown()`` tables in ``nic/costs.py`` -- a table key never
charged, or a charged field missing from its table, means the budget
tables drifted from the code that charges them.  Fields are found
both directly (``costs.fifo_pop``) and through cost-model helper
methods (``costs.cell_cycles(...)`` expands to the fields that method
transitively sums).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.devtools.model import RepoModel
from repro.devtools.project import (
    CallTarget,
    FunctionInfo,
    ProjectIndex,
    call_target,
    local_alias_env,
    self_attribute_path,
)
from repro.devtools.rules import (
    ModuleContext,
    ProjectContext,
    numeric_literals,
    register_rule,
    terminal_attribute,
)

#: Methods that charge cycles to an engine clock (or host CPU) ledger.
CHARGE_METHODS = {"work", "charge"}

#: Receiver terminal names that carry the engine clock.
CLOCK_RECEIVERS = frozenset({"clock"})

#: Cycle-profiler accounting methods (repro.obs.profiler.CycleProfiler).
PROFILER_METHODS = {"record_cell", "record_pdu", "record_oam", "record_ops"}

#: The module that *defines* the budgets may use literals freely.
BUDGET_HOME = "nic/costs.py"


def _cycles_expression(call: ast.Call) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "cycles":
            return keyword.value
    return None


@register_rule(
    "SL201",
    "SL2 cost-model",
    "magic cycle literal at an engine charge site",
    hint=(
        "name the budget: add a field to the cost model in nic/costs.py "
        "(or a named constant) and charge that"
    ),
)
def check_charge_literals(ctx: ModuleContext) -> None:
    if ctx.path.endswith(BUDGET_HOME):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in CHARGE_METHODS:
            continue
        cycles = _cycles_expression(node)
        if cycles is None:
            continue
        literals = numeric_literals(cycles)
        if literals:
            values = ", ".join(repr(lit.value) for lit in literals)
            ctx.report(
                "SL201",
                node,
                f"cycle charge uses unnamed literal(s) {values}; every "
                "cycle must trace to a named budget",
                values=[lit.value for lit in literals],
            )


@register_rule(
    "SL202",
    "SL2 cost-model",
    "magic cycle literal in profiler phase accounting",
    hint=(
        "the profiler's measured tables must be built from the same "
        "named cost-model fields the engine charges"
    ),
)
def check_profiler_literals(ctx: ModuleContext) -> None:
    if ctx.path.endswith(BUDGET_HOME):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in PROFILER_METHODS:
            continue
        if terminal_attribute(node.func.value) != "profiler":
            continue
        offenders = []
        for argument in list(node.args) + [kw.value for kw in node.keywords]:
            offenders.extend(numeric_literals(argument))
        if offenders:
            values = ", ".join(repr(lit.value) for lit in offenders)
            ctx.report(
                "SL202",
                node,
                f"profiler accounting uses unnamed literal(s) {values}",
                values=[lit.value for lit in offenders],
            )


# -- SL204: budget tables vs charge sites -----------------------------------


@dataclass
class CostModelInfo:
    """One budget-table class discovered in a ``nic/costs.py`` module."""

    name: str
    module: str
    breakdown_line: int
    fields: Set[str] = field(default_factory=set)
    #: method name -> cost fields it transitively sums.
    method_fields: Dict[str, Set[str]] = field(default_factory=dict)
    breakdown_keys: Set[str] = field(default_factory=set)


@dataclass
class ChargeRecord:
    """One engine-clock charge site."""

    module: str
    line: int
    #: ``(field, owning model name or None when the receiver is untyped)``
    direct: Tuple[Tuple[str, Optional[str]], ...] = ()
    #: model name -> fields reached through symbolic method expansion.
    expanded: Dict[str, Set[str]] = field(default_factory=dict)


def _collect_cost_models(index: ProjectIndex) -> Dict[str, CostModelInfo]:
    models: Dict[str, CostModelInfo] = {}
    for _key, cls in sorted(index.classes.items()):
        in_home = cls.module == BUDGET_HOME or cls.module.endswith(f"/{BUDGET_HOME}")
        if not in_home or "breakdown" not in cls.methods:
            continue
        fields: Set[str] = set()
        for item in cls.node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
            ):
                fields.add(item.target.id)
        if not fields:
            continue
        info = CostModelInfo(
            name=cls.name,
            module=cls.module,
            breakdown_line=cls.methods["breakdown"].line,
            fields=fields,
        )
        _fill_method_fields(cls.methods, info)
        for sub in ast.walk(cls.methods["breakdown"].node):
            if isinstance(sub, ast.Dict):
                for key in sub.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        info.breakdown_keys.add(key.value)
        models[cls.name] = info
    return models


def _fill_method_fields(
    cls_methods: Mapping[str, FunctionInfo], info: CostModelInfo
) -> None:
    direct: Dict[str, Set[str]] = {}
    calls: Dict[str, Set[str]] = {}
    for name, method in cls_methods.items():
        refs: Set[str] = set()
        callees: Set[str] = set()
        for node in ast.walk(method.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                if node.attr in info.fields:
                    refs.add(node.attr)
                elif node.attr in cls_methods:
                    callees.add(node.attr)
        direct[name] = refs
        calls[name] = callees
    for name in cls_methods:
        seen: Set[str] = set()
        stack = [name]
        fields: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            fields |= direct.get(current, set())
            stack.extend(calls.get(current, set()) - seen)
        info.method_fields[name] = fields


class _ChargeSites:
    """Every engine-clock charge site in a linted tree, with its fields."""

    def __init__(self, index: ProjectIndex, model: RepoModel) -> None:
        self.index = index
        self.cost_models = _collect_cost_models(index)
        self.universe: Set[str] = {
            name for name in model.cost_fields if not name.startswith("_")
        }
        for info in self.cost_models.values():
            self.universe |= info.fields
        self.records: List[ChargeRecord] = []
        for key in sorted(index.functions):
            self._scan(index.functions[key])

    def _scan(self, fn: FunctionInfo) -> None:
        env = local_alias_env(fn.node)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            target = call_target(node.func, env)
            if (
                target is not None
                and target.method in CHARGE_METHODS
                and self._is_clock(fn, target)
            ):
                self._record(fn, node, env)

    def _is_clock(self, fn: FunctionInfo, target: CallTarget) -> bool:
        if target.terminal in CLOCK_RECEIVERS:
            return True
        if target.receiver:
            receiver = self.index.receiver_class(fn, target.receiver)
            if receiver is not None and receiver.name == "EngineClock":
                return True
        return False

    def _record(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: Mapping[str, Tuple[str, ...]],
    ) -> None:
        cycles = _cycles_expression(call)
        if cycles is None:
            return
        direct: List[Tuple[str, Optional[str]]] = []
        expanded: Dict[str, Set[str]] = {}
        for node in ast.walk(cycles):
            if isinstance(node, ast.Call):
                inner = call_target(node.func, env)
                if inner is None:
                    continue
                for info in self._models_for(fn, inner):
                    fields = info.method_fields.get(inner.method)
                    if fields:
                        expanded.setdefault(info.name, set()).update(fields)
            elif isinstance(node, ast.Attribute) and node.attr in self.universe:
                owner: Optional[str] = None
                receiver = self_attribute_path(node.value, env)
                if receiver is not None:
                    cls = self.index.receiver_class(fn, receiver)
                    if cls is not None and cls.name in self.cost_models:
                        owner = cls.name
                direct.append((node.attr, owner))
        if direct or expanded:
            self.records.append(
                ChargeRecord(
                    module=fn.module,
                    line=call.lineno,
                    direct=tuple(direct),
                    expanded=expanded,
                )
            )

    def _models_for(
        self, fn: FunctionInfo, target: CallTarget
    ) -> List[CostModelInfo]:
        if target.receiver:
            cls = self.index.receiver_class(fn, target.receiver)
            if cls is not None:
                info = self.cost_models.get(cls.name)
                return [info] if info is not None else []
        return [
            info
            for info in self.cost_models.values()
            if info.method_fields.get(target.method)
        ]


@register_rule(
    "SL204",
    "SL2 cost-model",
    "budget table and charge sites disagree on the cost-field set",
    hint=(
        "nic/costs.py breakdown() tables and the engine charge sites "
        "must cover the same fields: charge the missing field, add it "
        "to the table, or delete the dead table row"
    ),
    scope="project",
)
def check_budget_table_composition(ctx: ProjectContext) -> None:
    analysis = _ChargeSites(ctx.index, ctx.model)
    models = analysis.cost_models
    if not models:
        return
    charged: Dict[str, Set[str]] = {name: set() for name in models}
    for record in analysis.records:
        for field_name, owner in record.direct:
            if owner is not None:
                charged.setdefault(owner, set()).add(field_name)
            else:
                for info in models.values():
                    if field_name in info.fields:
                        charged[info.name].add(field_name)
        for owner, fields in record.expanded.items():
            charged.setdefault(owner, set()).update(fields)
    # Direction A: a table key nothing ever charges is a dead budget row.
    for name in sorted(models):
        info = models[name]
        if not charged.get(name):
            continue  # model never charged at all: out of linted scope
        for key in sorted(info.breakdown_keys):
            if key in info.fields and key not in charged[name]:
                ctx.report(
                    "SL204",
                    path=info.module,
                    line=info.breakdown_line,
                    message=(
                        f"budget-table key {key!r} of {info.name}.breakdown() "
                        "is never charged at any engine charge site"
                    ),
                )
    # Direction B: a charged field absent from its budget table.
    for record in analysis.records:
        for field_name, owner in record.direct:
            if owner is not None:
                info = models.get(owner)
                if (
                    info is not None
                    and field_name in info.fields
                    and field_name not in info.breakdown_keys
                ):
                    ctx.report(
                        "SL204",
                        path=record.module,
                        line=record.line,
                        message=(
                            f"charged cost field {field_name!r} is missing "
                            f"from the {info.name}.breakdown() budget table"
                        ),
                    )
            else:
                owners = [
                    info
                    for info in models.values()
                    if field_name in info.fields
                ]
                if owners and all(
                    field_name not in info.breakdown_keys for info in owners
                ):
                    names = ", ".join(sorted(info.name for info in owners))
                    ctx.report(
                        "SL204",
                        path=record.module,
                        line=record.line,
                        message=(
                            f"charged cost field {field_name!r} is missing "
                            f"from the budget table(s) of {names}"
                        ),
                    )

"""SL2 -- cost-model conformance: no magic cycle numbers.

Davie's evaluation is an accounting argument: every engine cycle in
the T1/T2 tables traces to a named per-operation budget, and the
simulation's claim to reproduce the paper rests on charging *exactly*
those budgets.  A literal ``clock.work(16, ...)`` is a number
with no provenance -- if the cost table changes, the call site
silently diverges from the tables the CLI prints.  Cycle expressions
at charge sites must therefore be built from named
:mod:`repro.nic.costs` fields (or other named constants).

That the tables, the charges and the profiler's tables agree is not a
lint question: :mod:`repro.nic.costs` builds the tables and the
charges from the same fields, the engine clocks book the charges
themselves, and the cycle profiler reads the clocks' ledgers
(``tests/test_nic_costs.py`` and ``tests/test_obs.py`` check both).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.devtools.rules import ModuleContext, numeric_literals, register_rule

#: Methods that charge cycles to an engine clock or the host CPU.
CHARGE_METHODS = {"work", "execute_then"}

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

"""SL3 -- trace-taxonomy conformance: every event and drop has a name.

The observability layer's contract is that every lifecycle event a
component can emit is declared in
:data:`repro.obs.trace.EVENT_TAXONOMY` and every cell/PDU death
carries a ``reason`` from :data:`repro.obs.trace.DROP_REASONS`.  The
recorder enforces this at run time, but only on paths a test happens
to execute -- and some emission sites run under no test and no traced
scenario -- so these rules enforce it at lint time, on every emission
site.  (That every declared reason has a conservation-ledger bucket is
a property of two tables, not of call sites; ``tests/test_obs.py``
checks it.)
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.devtools.rules import (
    ModuleContext,
    register_rule,
    string_arg,
    terminal_attribute,
)

#: Receiver names that carry a TraceRecorder at emission sites.
TRACE_RECEIVERS = {"trace", "recorder"}

DROP_EVENTS = {"cell.drop", "pdu.drop"}


def _emit_call(node: ast.AST) -> Optional[ast.Call]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
        and terminal_attribute(node.func.value) in TRACE_RECEIVERS
    ):
        return node
    return None


def _reason_keyword(call: ast.Call) -> Optional[ast.keyword]:
    for keyword in call.keywords:
        if keyword.arg == "reason":
            return keyword
    return None


@register_rule(
    "SL301",
    "SL3 trace-taxonomy",
    "trace event name missing from EVENT_TAXONOMY",
    hint=(
        "declare the event (and its meaning) in "
        "repro.obs.trace.EVENT_TAXONOMY and docs/OBSERVABILITY.md first"
    ),
)
def check_event_names(ctx: ModuleContext) -> None:
    taxonomy = ctx.model.event_names
    for node in ast.walk(ctx.tree):
        call = _emit_call(node)
        if call is None:
            continue
        name = string_arg(call, 0, "name")
        if name is not None and name not in taxonomy:
            ctx.report(
                "SL301",
                call,
                f"event {name!r} is not in EVENT_TAXONOMY",
            )


@register_rule(
    "SL302",
    "SL3 trace-taxonomy",
    "drop event with a missing or undeclared reason",
    hint=(
        "every cell/PDU death needs reason=<key of DROP_REASONS>; "
        "declare new causes there first"
    ),
)
def check_drop_reasons(ctx: ModuleContext) -> None:
    reasons = ctx.model.drop_reasons
    for node in ast.walk(ctx.tree):
        call = _emit_call(node)
        if call is None:
            continue
        name = string_arg(call, 0, "name")
        if name not in DROP_EVENTS:
            continue
        keyword = _reason_keyword(call)
        if keyword is None:
            ctx.report(
                "SL302",
                call,
                f"{name} emitted without a reason= argument",
            )
            continue
        if (
            isinstance(keyword.value, ast.Constant)
            and isinstance(keyword.value.value, str)
            and keyword.value.value not in reasons
        ):
            ctx.report(
                "SL302",
                call,
                f"drop reason {keyword.value.value!r} is not in DROP_REASONS",
            )

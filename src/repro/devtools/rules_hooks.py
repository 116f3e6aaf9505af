"""SL5 -- hook-shape conformance: call sites match the installed hooks.

The observability hooks are duck-typed on purpose: ``repro.nic`` never
imports ``repro.obs``; each component just guards ``if self.trace is
not None`` and calls the recorder its simulator carried.  Duck typing
means a drifted call site -- a misspelled method, a dropped required
argument, a keyword the recorder does not take -- fails only when a
traced run happens to execute that line.  These rules pin every
``trace``/``recorder``/``profiler`` call site to the exact signatures
:mod:`repro.obs` ships, so the contract breaks at lint time instead.
"""

from __future__ import annotations

import ast

from repro.devtools.model import HookSignature
from repro.devtools.rules import ModuleContext, register_rule, terminal_attribute


def _hook_call(ctx: ModuleContext, node: ast.AST):
    """(receiver kind, method, call) for hook call sites, else None."""
    if not isinstance(node, ast.Call) or not isinstance(
        node.func, ast.Attribute
    ):
        return None
    receiver = terminal_attribute(node.func.value)
    if receiver not in ctx.model.hooks:
        return None
    return receiver, node.func.attr, node


@register_rule(
    "SL501",
    "SL5 hook-shape",
    "call to a method the canonical hook class does not define",
    hint=(
        "the hook is duck-typed; only methods of "
        "repro.obs.trace.TraceRecorder / repro.obs.profiler.CycleProfiler "
        "exist at run time"
    ),
)
def check_hook_method_exists(ctx: ModuleContext) -> None:
    for node in ast.walk(ctx.tree):
        found = _hook_call(ctx, node)
        if found is None:
            continue
        receiver, method, call = found
        known = ctx.model.hook_methods.get(receiver)
        if known and method not in known:
            ctx.report(
                "SL501",
                call,
                f".{receiver} hook has no method {method!r}",
            )


def _check_signature(
    ctx: ModuleContext, call: ast.Call, receiver: str, signature: HookSignature
) -> None:
    n_positional = len(call.args)
    has_star = any(isinstance(a, ast.Starred) for a in call.args)
    if (
        not has_star
        and not signature.has_var_positional
        and n_positional > signature.max_positional()
    ):
        ctx.report(
            "SL502",
            call,
            f".{receiver}.{signature.name}() takes at most "
            f"{signature.max_positional()} positional argument(s), "
            f"{n_positional} given",
        )
        return
    keywords = {kw.arg for kw in call.keywords if kw.arg is not None}
    has_double_star = any(kw.arg is None for kw in call.keywords)
    if not signature.has_var_keyword:
        unknown = keywords - set(signature.params)
        if unknown:
            ctx.report(
                "SL502",
                call,
                f".{receiver}.{signature.name}() got unexpected keyword(s) "
                f"{', '.join(sorted(unknown))}",
            )
            return
    if has_star or has_double_star:
        return
    covered = set(signature.params[:n_positional]) | keywords
    missing = [p for p in signature.required if p not in covered]
    if missing:
        ctx.report(
            "SL502",
            call,
            f".{receiver}.{signature.name}() missing required "
            f"argument(s) {', '.join(missing)}",
        )


@register_rule(
    "SL502",
    "SL5 hook-shape",
    "hook call incompatible with the installed signature",
    hint=(
        "match the exact signature repro.obs.observe installs (see "
        "repro.obs.trace / repro.obs.profiler)"
    ),
)
def check_hook_call_shapes(ctx: ModuleContext) -> None:
    for node in ast.walk(ctx.tree):
        found = _hook_call(ctx, node)
        if found is None:
            continue
        receiver, method, call = found
        signature = ctx.model.hooks[receiver].get(method)
        if signature is not None:
            _check_signature(ctx, call, receiver, signature)

"""The conformance tables the rules check call sites against.

Two pieces of ground truth, read from the imported :mod:`repro`
package:

- the trace-event taxonomy and drop-reason table
  (:data:`repro.obs.trace.EVENT_TAXONOMY` / ``DROP_REASONS``);
- the canonical observability hook signatures
  (:class:`repro.obs.trace.TraceRecorder`,
  :class:`repro.obs.profiler.CycleProfiler`).

The linter never executes the code it scans; it imports only these
tables, so any tree -- the shipped package or the fixture corpus -- is
checked against the names the running simulator accepts.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, List, Set

#: Hook receivers the pipeline threads through (attribute/variable
#: names at call sites) and the methods each exposes.
TRACE_METHODS = {"emit", "tag_cell"}
PROFILER_METHODS = {"record_cell", "record_pdu", "record_oam", "record_ops"}


@dataclass(frozen=True)
class HookSignature:
    """Shape of one canonical hook method (``self`` excluded)."""

    name: str
    params: List[str]  #: positional-or-keyword parameter names, in order
    required: List[str]  #: the subset without defaults
    has_var_keyword: bool  #: accepts ``**kwargs``
    has_var_positional: bool  #: accepts ``*args``

    def max_positional(self) -> int:
        return len(self.params)


@dataclass
class RepoModel:
    """Every conformance table the rule families consult."""

    event_names: Set[str]
    drop_reasons: Set[str]
    #: receiver attribute name (``trace``/``profiler``...) ->
    #: {method name -> signature}
    hooks: Dict[str, Dict[str, HookSignature]]
    #: receiver attribute name -> every method the canonical hook class
    #: defines (so "unknown method" means unknown, not merely unchecked)
    hook_methods: Dict[str, Set[str]]


def _method_names(obj: type) -> Set[str]:
    return {
        name
        for name, value in vars(obj).items()
        if callable(value) or isinstance(value, property)
    }


def _signatures(obj: type, methods: Set[str]) -> Dict[str, HookSignature]:
    signatures: Dict[str, HookSignature] = {}
    for name in methods:
        signature = inspect.signature(getattr(obj, name))
        parameters = list(signature.parameters.values())[1:]  # drop self
        positional = [
            p
            for p in parameters
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.POSITIONAL_ONLY)
        ]
        signatures[name] = HookSignature(
            name=name,
            params=[p.name for p in positional],
            required=[p.name for p in positional if p.default is p.empty],
            has_var_keyword=any(p.kind == p.VAR_KEYWORD for p in parameters),
            has_var_positional=any(
                p.kind == p.VAR_POSITIONAL for p in parameters
            ),
        )
    return signatures


def build_model() -> RepoModel:
    """Read every table from the imported package."""
    from repro.obs.profiler import CycleProfiler
    from repro.obs.trace import DROP_REASONS, EVENT_TAXONOMY, TraceRecorder

    trace_hooks = _signatures(TraceRecorder, TRACE_METHODS)
    trace_methods = _method_names(TraceRecorder)
    return RepoModel(
        event_names=set(EVENT_TAXONOMY),
        drop_reasons=set(DROP_REASONS),
        hooks={
            "trace": trace_hooks,
            "recorder": trace_hooks,
            "profiler": _signatures(CycleProfiler, PROFILER_METHODS),
        },
        hook_methods={
            "trace": trace_methods,
            "recorder": trace_methods,
            "profiler": _method_names(CycleProfiler),
        },
    )

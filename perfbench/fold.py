"""Fold a profile of the measured phase into per-layer numbers.

A profile is a table of rows, one per function: its self time, its call
count, and, per caller, the self time it spent and the calls it took
when called from that caller (cProfile's caller edges).  A row belongs
to a *layer*: ``repro.<package>`` for the simulator's own code,
``bench`` for this benchmark's files, ``other`` for any other part of
``repro``.  Builtins, the standard library and generated code (dataclass
``__init__``) belong to no layer; their self time is charged along the
caller edges to the layers that called them, recursively, so the layer
shares always sum to 100%.  A function no layer reaches is charged to
``bench``, whose code opened the profiled region.

Counts come from the same table and are exact: call counts repeat from
run to run, where times do not.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: Layers reported by name; every other ``repro`` package folds into
#: ``other`` and the benchmark's own code into ``bench``.
LAYERS = ("sim", "nic", "atm", "aal", "host", "tm", "scale", "net", "obs")
REPORTED = LAYERS + ("bench", "other")
#: Layers whose calls into the event kernel are counted.
CALLING_LAYERS = ("nic", "atm", "aal", "host", "scale")
#: The event kernel's modules, relative to the ``repro`` package.
KERNEL_MODULES = ("sim/core.py", "sim/process.py", "sim/resources.py")


@dataclass
class Row:
    """One function of the profile."""

    key: str
    file: str
    self_s: float
    calls: int
    #: caller key -> (self seconds spent under that caller, calls from it)
    callers: Dict[str, Tuple[float, int]] = field(default_factory=dict)


def _label(code) -> Tuple[str, str]:
    """(file, readable name) for a profiler entry's code."""
    if isinstance(code, str):  # a builtin: "<built-in method ...>"
        return "", code
    name = getattr(code, "co_qualname", code.co_name)
    return code.co_filename, f"{code.co_filename}:{code.co_firstlineno}:{name}"


def table_from_stats(entries: Iterable) -> List[Row]:
    """Rows from ``cProfile.Profile.getstats()`` entries.

    Entries are keyed by code object, so two generated functions that
    share a file, line and name (dataclass ``__init__`` methods) stay
    separate rows: the second gets a ``#2`` suffix.
    """
    entries = list(entries)
    keys: Dict[int, str] = {}
    used: Dict[str, int] = {}
    files: Dict[int, str] = {}

    def key_of(code) -> str:
        ident = id(code)
        if ident not in keys:
            file, label = _label(code)
            n = used.get(label, 0) + 1
            used[label] = n
            keys[ident] = label if n == 1 else f"{label}#{n}"
            files[ident] = file
        return keys[ident]

    rows: Dict[str, Row] = {}
    for entry in entries:
        key = key_of(entry.code)
        file = files[id(entry.code)]
        rows[key] = Row(key, file, entry.inlinetime, entry.callcount)
    for entry in entries:
        caller = key_of(entry.code)
        for sub in entry.calls or ():
            callee = key_of(sub.code)
            row = rows.get(callee)
            if row is None:  # callee never returned inside the region
                row = rows[callee] = Row(callee, files[id(sub.code)], 0.0, 0)
            row.callers[caller] = (sub.inlinetime, sub.callcount)
    return list(rows.values())


def code_key(code) -> str:
    """The row key :func:`table_from_stats` gives a live code object."""
    return _label(code)[1]


def layer_classifier(
    package_dir: str, bench_dir: str
) -> Callable[[str], Optional[str]]:
    """Map a row's file to its layer (None: builtin, stdlib, generated)."""
    package = os.path.normcase(os.path.abspath(package_dir)) + os.sep
    bench = os.path.normcase(os.path.abspath(bench_dir)) + os.sep

    def layer_of(file: str) -> Optional[str]:
        if not file or file.startswith("<"):
            return None
        path = os.path.normcase(os.path.abspath(file))
        if path.startswith(bench):
            return "bench"
        if path.startswith(package):
            head = path[len(package):].split(os.sep)[0]
            return head if head in LAYERS else "other"
        return None

    return layer_of


def attribute(
    rows: List[Row], layer_of: Callable[[str], Optional[str]]
) -> Dict[str, Dict[str, float]]:
    """Each row's share per layer: 1.0 to its own layer when it has one.

    A row without a layer takes the mix of its callers' layers, weighted
    by the self time it spent under each caller (by call count when it
    spent none).  Cycles among such rows are cut; a row no layer reaches
    goes to ``bench``.
    """
    by_key = {row.key: row for row in rows}
    memo: Dict[str, Dict[str, float]] = {}
    active: set = set()

    def mix(key: str) -> Optional[Dict[str, float]]:
        row = by_key.get(key)
        if row is None:
            return {"bench": 1.0}
        own = layer_of(row.file)
        if own is not None:
            return {own: 1.0}
        if key in memo:
            return memo[key]
        if key in active:
            return None
        active.add(key)
        edges = [
            (caller, self_s, calls)
            for caller, (self_s, calls) in sorted(row.callers.items())
        ]
        by_time = sum(self_s for _, self_s, _ in edges) > 0
        shares: Dict[str, float] = {}
        total = 0.0
        cut = False
        for caller, self_s, calls in edges:
            weight = self_s if by_time else float(calls)
            if weight <= 0:
                continue
            parent = mix(caller)
            if parent is None:
                cut = True
                continue
            total += weight
            for layer, part in parent.items():
                shares[layer] = shares.get(layer, 0.0) + weight * part
        active.discard(key)
        if total <= 0:
            if cut:
                return None  # reached only through the cycle being resolved
            memo[key] = {"bench": 1.0}
            return memo[key]
        memo[key] = {layer: part / total for layer, part in shares.items()}
        return memo[key]

    return {row.key: mix(row.key) or {"bench": 1.0} for row in rows}


def fold(
    rows: List[Row],
    layer_of: Callable[[str], Optional[str]],
    package_dir: str,
    markers: Optional[Mapping[str, str]] = None,
    top: int = 40,
) -> Dict[str, object]:
    """Self time and counts per layer, and the *top* rows by self time.

    *markers* names rows whose call counts are reported as-is (for
    example ``{"procs": <key of Process.__init__>}``).
    """
    mixes = attribute(rows, layer_of)
    seconds: Dict[str, float] = {layer: 0.0 for layer in REPORTED}
    for row in rows:
        for layer, part in mixes[row.key].items():
            layer = layer if layer in REPORTED else "other"
            seconds[layer] += row.self_s * part
    total = sum(seconds.values())
    pct = {
        layer: (100.0 * s / total if total > 0 else 0.0)
        for layer, s in seconds.items()
    }

    kernel = tuple(
        os.path.normcase(os.path.join(os.path.abspath(package_dir), m))
        for m in KERNEL_MODULES
    )
    by_key = {row.key: row for row in rows}
    kernel_calls = {layer: 0 for layer in CALLING_LAYERS}
    for row in rows:
        if not row.file:
            continue
        if os.path.normcase(os.path.abspath(row.file)) not in kernel:
            continue
        for caller, (_self_s, calls) in row.callers.items():
            caller_row = by_key.get(caller)
            layer = layer_of(caller_row.file) if caller_row else None
            if layer in kernel_calls:
                kernel_calls[layer] += calls
    counts = {
        name: (by_key[key].calls if key in by_key else 0)
        for name, key in (markers or {}).items()
    }
    ranked = sorted(rows, key=lambda row: row.self_s, reverse=True)[:top]
    return {
        "self_s": seconds,
        "self_pct": pct,
        "total_s": total,
        "kernel_calls": kernel_calls,
        "counts": counts,
        "top": [
            {
                "function": row.key,
                "self_s": row.self_s,
                "calls": row.calls,
                "layers": mixes[row.key],
            }
            for row in ranked
        ],
    }

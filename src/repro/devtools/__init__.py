"""``simlint``: repo-native static analysis for the simulator's invariants.

The reproduction's credibility rests on conventions that ordinary test
suites cannot see: every source of randomness flows through
:class:`repro.sim.random.RandomStreams` (the common-random-numbers
discipline), every engine cycle charged traces back to a named budget
in :mod:`repro.nic.costs` (the paper's instruction-level accounting
method), simulation timestamps are never compared with float equality,
and no sweep point reads the identity of the worker that runs it.
This package turns each convention into an AST-checked rule with a
stable id, a severity, a fix hint, and a suppression syntax -- so a
drift between the code and the paper's accounting argument fails CI
instead of silently skewing the T1/T2/F8 tables.  The rules read
syntax alone; the trace taxonomy and the hook signatures are checked
where each call runs, by :class:`repro.obs.trace.TraceRecorder` and by
Python itself.

Entry points::

    python -m repro lint             # lint src/repro, text report
    python -m repro lint --docs      # also run the docs hygiene checks

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the
rationale tying each rule family back to the paper.
"""

from repro.devtools.findings import Finding, Severity
from repro.devtools.linter import LintResult, lint_paths
from repro.devtools.rules import RULE_REGISTRY, Rule, register_rule

__all__ = [
    "Finding",
    "Severity",
    "LintResult",
    "lint_paths",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
]

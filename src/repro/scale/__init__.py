"""Massive-multiplexing scale plane: session churn at thousands of VCs.

:class:`~repro.scale.session.SessionEngine` drives Poisson call churn
through the signalling plane.  The package exports only that model
side; the S1 experiment that gates the whole scale story (concurrency,
CAM pressure, bounded metric cardinality, ledger conservation) is
:func:`~repro.scale.experiment.run_s1`, imported from its own module.
See ``docs/SCALE.md``.
"""

from repro.scale.session import SessionEngine, SessionProfile

__all__ = [
    "SessionEngine",
    "SessionProfile",
]

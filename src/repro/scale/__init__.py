"""Massive-multiplexing scale plane: session churn at thousands of VCs.

:class:`~repro.scale.session.SessionEngine` drives Poisson call churn
through the signalling plane; :func:`~repro.scale.experiment.run_s1` is
the S1 experiment that gates the whole scale story (concurrency, CAM
pressure, bounded metric cardinality, ledger conservation).  See
``docs/SCALE.md``.
"""

from repro.scale.experiment import S1_TARGET_CONCURRENT, run_s1
from repro.scale.session import SessionEngine, SessionProfile

__all__ = [
    "S1_TARGET_CONCURRENT",
    "SessionEngine",
    "SessionProfile",
    "run_s1",
]

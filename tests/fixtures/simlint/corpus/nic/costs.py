"""Corpus-local cost model: the SL204 cross-check target.

``ghost_op`` sits in the breakdown table but is charged nowhere (the
direction-A finding lands on ``breakdown``); ``secret_op`` and
``hidden_op`` are charged in ``budget_drift.py`` but have no table
row (direction B lands on the charge sites).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ToyCostModel:
    """Per-operation cycle budgets for the toy engines."""

    header_word: int = 4
    trailer_word: int = 9
    secret_op: int = 7
    ghost_op: int = 5
    hidden_op: int = 3

    def breakdown(self):
        """The toy T1 table: ``ghost_op`` is a dead budget row (SL204)."""
        return {
            "header_word": self.header_word,
            "trailer_word": self.trailer_word,
            "ghost_op": self.ghost_op,
        }

"""Shared fixtures for the test suite, plus the Hypothesis profiles.

Tier-1 runs under the ``tier1`` profile: derandomized (each property's
examples are derived from the test itself) and database-free, so every
run on every machine draws the same examples and gives the same
verdict.  ``HYPOTHESIS_PROFILE=explore`` switches to fresh random draws
with a larger default example budget and prints a reproduction blob for
any failure; a counterexample it finds is pinned with ``@example``.
Tests that set ``max_examples`` themselves keep that budget under both
profiles.
"""

import os
import random

import pytest
from hypothesis import settings

from repro.sim import Simulator

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "explore", max_examples=500, database=None, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator per test."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(12345)

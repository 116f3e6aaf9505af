"""Reproducible random number streams.

Each logically distinct source of randomness in a simulation (every traffic
generator, every loss process) gets its *own* stream, derived from a root
seed and a stable name.  Adding a new random consumer therefore never
perturbs the draws seen by existing consumers -- the classic common random
numbers discipline for comparing configurations.

A stream's seed is the SHA-256 of ``"<root seed>:<name>"``.  ``hashlib``
is imported when the first stream is made, not with the package: it
loads OpenSSL's libcrypto, which a process that never draws a random
number does not need.
"""

from __future__ import annotations

import random


class RandomStreams:
    """A factory of named, independently seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            import hashlib

            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    # -- convenience draw --------------------------------------------------

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean); mean must be positive."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return self.stream(name).expovariate(1.0 / mean)

"""Reassembly timers.

A receiver must not hold partial PDUs forever: when the tail of a PDU is
lost, its context would otherwise leak buffer memory and (for AAL3/4)
poison the MID stream.  The timer wheel here is the standard coarse
design hardware of the era used -- a periodic sweep at a fixed tick,
expiring any context older than the timeout.  Precision is one tick,
which is the right trade: per-context precise timers would cost a timer
op per cell.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from repro.sim.core import Simulator
from repro.sim.monitor import Counter


class ReassemblyTimerWheel:
    """Coarse timeout tracking for reassembly contexts.

    Usage::

        wheel = ReassemblyTimerWheel(sim, timeout=0.5, tick=0.1,
                                     on_expire=expire_context)
        wheel.arm(vc)        # on first cell of a PDU
        wheel.touch(vc)      # optionally, on every cell (sliding timeout)
        wheel.disarm(vc)     # on PDU completion
        wheel.start()

    ``on_expire(key)`` is called from the sweep when a key's last activity
    is older than *timeout*; the key is removed first, so re-arming from
    the callback is safe.
    """

    def __init__(
        self,
        sim: Simulator,
        timeout: float,
        tick: float,
        on_expire: Callable[[Hashable], None],
        name: str = "reassembly-timers",
    ) -> None:
        if timeout <= 0 or tick <= 0:
            raise ValueError("timeout and tick must be positive")
        self.sim = sim
        self.timeout = timeout
        self.tick = tick
        self.on_expire = on_expire
        self.name = name
        self._deadlines: Dict[Hashable, float] = {}
        self._running = False
        self.expirations = Counter(f"{name}.expired")

    def __len__(self) -> int:
        return len(self._deadlines)

    def arm(self, key: Hashable) -> None:
        """Begin (or restart) timing *key*."""
        self._deadlines[key] = self.sim._now + self.timeout

    # A sliding timeout is a re-arm.
    touch = arm

    def disarm(self, key: Hashable) -> bool:
        """Stop timing *key*; False if it was not armed."""
        return self._deadlines.pop(key, None) is not None

    def deadline_of(self, key: Hashable) -> Optional[float]:
        return self._deadlines.get(key)

    def start(self) -> None:
        """Launch the periodic sweep process (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.process(self._sweeper())

    def stop(self) -> None:
        """Stop sweeping after the current tick."""
        self._running = False

    def _sweeper(self):
        while self._running:
            yield self.sim.timeout(self.tick)
            self.sweep()

    def sweep(self) -> int:
        """Expire every overdue key now; returns how many fired."""
        now = self.sim.now
        expired = [k for k, dl in self._deadlines.items() if dl <= now]
        for key in expired:
            del self._deadlines[key]
            self.expirations.increment()
            self.on_expire(key)
        return len(expired)

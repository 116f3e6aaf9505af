"""The host I/O bus: a shared, arbitrated, burst-oriented transport.

Modelled on TURBOchannel: 32-bit data path at 25 MHz (100 MB/s peak),
with DMA bursts of up to a configurable word count.  A transaction costs
an arbitration/setup overhead plus one bus cycle per word; long
transfers split into bursts, re-arbitrating between bursts so other
masters (the CPU doing programmed I/O, a frame buffer...) are not locked
out -- precisely the property that makes large DMA transfers cheap but
not free.

The bus is the *second* potential bottleneck of the paper's architecture
(after the protocol engines): every received byte crosses it once, and
transmitted bytes cross it once, so at OC-12c rates the budget matters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Any, Callable, Deque

from repro.sim.core import Simulator
from repro.sim.monitor import Counter

#: One master's transaction: words still to move, its bytes, the master,
#: and the continuation with its args.  Each burst's queue entry carries
#: it as its args, with the words left after that burst.
_Transaction = tuple[int, int, str, Callable[..., Any], tuple[Any, ...]]


@dataclass(frozen=True)
class BusSpec:
    """Static description of an I/O bus."""

    name: str
    clock_hz: float
    width_bytes: int
    #: Bus cycles of arbitration + address phase per burst.
    burst_setup_cycles: int
    #: Maximum words moved per burst before re-arbitrating.
    max_burst_words: int

    def __post_init__(self) -> None:
        if not self.clock_hz > 0:
            raise ValueError("bus clock must be positive")
        if self.width_bytes not in (1, 2, 4, 8, 16):
            raise ValueError("width must be a power-of-two byte count")
        if not self.burst_setup_cycles >= 0:
            raise ValueError("setup cycles must be >= 0")
        if not self.max_burst_words >= 1:
            raise ValueError("burst length must be >= 1 word")

    @property
    def cycle_time(self) -> float:
        return 1.0 / self.clock_hz

    @property
    def peak_bandwidth_bps(self) -> float:
        """Data-phase-only bandwidth in bits/second."""
        return self.clock_hz * self.width_bytes * 8

    def words_for(self, nbytes: int) -> int:
        """Bus words needed for *nbytes* (partial words round up)."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        return -(-nbytes // self.width_bytes)

    def transfer_time(self, nbytes: int) -> float:
        """Seconds of bus occupancy to move *nbytes*, including setups."""
        words = self.words_for(nbytes)
        if words == 0:
            return 0.0
        bursts = -(-words // self.max_burst_words)
        cycles = words + bursts * self.burst_setup_cycles
        return cycles * self.cycle_time

    def effective_bandwidth_bps(self, transfer_bytes: int) -> float:
        """Achievable bandwidth for back-to-back transfers of a given size."""
        t = self.transfer_time(transfer_bytes)
        return (transfer_bytes * 8) / t if t > 0 else 0.0


#: TURBOchannel-class bus: 32-bit, 25 MHz, 128-word DMA bursts.
TURBOCHANNEL = BusSpec(
    name="TURBOchannel",
    clock_hz=25e6,
    width_bytes=4,
    burst_setup_cycles=6,
    max_burst_words=128,
)


class SystemBus:
    """The dynamic bus: an arbitrated resource that masters transact on.

    ``transfer_then(nbytes, master, then, *args)`` moves the bytes and
    calls ``then(*args)`` from the entry in which the last burst ends,
    before the bus is granted to the next master.  Long transfers hold
    the bus one burst at a time; between bursts the arbitration is
    re-run, so a competing master's short transaction slots in with
    bounded latency.  Arbitration is FIFO: a transaction with bursts
    left rejoins the queue behind every waiting master.
    """

    def __init__(self, sim: Simulator, spec: BusSpec, name: str = "bus") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        #: Transactions waiting for the bus, behind the one holding it.
        self._waiting: Deque[_Transaction] = deque()
        self._held = False
        self._busy_time = 0.0
        # The spec's word width and seconds per bus cycle.
        self._width = spec.width_bytes
        self._cycle_time = spec.cycle_time
        self.bytes_moved = Counter(f"{name}.bytes")
        self.transactions = Counter(f"{name}.transactions")
        self.bytes_by_master: dict[str, int] = {}
        # Bound once: each burst's entry carries this object.
        self._then_burst_done = self._burst_done

    def transfer_then(
        self, nbytes: int, master: str, then: Callable[..., Any], *args: Any
    ) -> None:
        """Move *nbytes* for *master*, then call ``then(*args)``.

        On an idle bus the transaction's first burst starts here: this
        frame books it and queues its entry.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        self.transactions.count += 1
        words = -(-nbytes // self._width)
        if not words:
            # Nothing to move: done at once, held bus or not (the master
            # is still listed, with its bytes unchanged).
            by_master = self.bytes_by_master
            by_master[master] = by_master.get(master, 0)
            then(*args)
        elif self._held:
            self._waiting.append((words, nbytes, master, then, args))
        else:
            self._held = True
            burst_words = min(words, self.spec.max_burst_words)
            duration = (self.spec.burst_setup_cycles + burst_words) * self._cycle_time
            self._busy_time += duration
            sim = self.sim
            sequence = sim._sequence + 1
            sim._sequence = sequence
            heappush(
                sim._queue,
                (
                    sim._now + duration,
                    sequence,
                    self._then_burst_done,
                    (words - burst_words, nbytes, master, then, args),
                ),
            )

    def _burst(
        self,
        words: int,
        nbytes: int,
        master: str,
        then: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> None:
        """Grant the held bus to a waiting transaction for its next
        burst (an idle bus grants a new one in ``transfer_then``)."""
        burst_words = min(words, self.spec.max_burst_words)
        duration = (self.spec.burst_setup_cycles + burst_words) * self._cycle_time
        self._busy_time += duration
        sim = self.sim
        sequence = sim._sequence + 1
        sim._sequence = sequence
        heappush(
            sim._queue,
            (
                sim._now + duration,
                sequence,
                self._then_burst_done,
                (words - burst_words, nbytes, master, then, args),
            ),
        )

    def _burst_done(
        self,
        words: int,
        nbytes: int,
        master: str,
        then: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> None:
        """A burst ended: the transaction rejoins the queue with the
        *words* it has left, or completes here; then the bus is granted
        to the oldest waiting transaction."""
        if words:
            self._waiting.append((words, nbytes, master, then, args))
        else:
            self.bytes_moved.count += nbytes
            by_master = self.bytes_by_master
            by_master[master] = by_master.get(master, 0) + nbytes
            then(*args)
        if self._waiting:
            self._burst(*self._waiting.popleft())
        else:
            self._held = False

    def utilization(self, now: float | None = None) -> float:
        """Fraction of elapsed time the bus was held by some master."""
        end = self.sim.now if now is None else now
        return min(1.0, self._busy_time / end) if end > 0 else 0.0

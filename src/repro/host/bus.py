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

from dataclasses import dataclass

from repro.sim.core import Simulator
from repro.sim.monitor import Counter
from repro.sim.resources import Resource

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
        if self.clock_hz <= 0:
            raise ValueError("bus clock must be positive")
        if self.width_bytes not in (1, 2, 4, 8, 16):
            raise ValueError("width must be a power-of-two byte count")
        if self.burst_setup_cycles < 0:
            raise ValueError("setup cycles must be >= 0")
        if self.max_burst_words < 1:
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

    ``transfer(nbytes, master)`` is a process-style operation: the caller
    yields on the returned event and resumes once its data has moved.
    Long transfers hold the bus one burst at a time; between bursts the
    arbitration is re-run, so a competing master's short transaction
    slots in with bounded latency.
    """

    def __init__(self, sim: Simulator, spec: BusSpec, name: str = "bus") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        self._arbiter = Resource(sim, capacity=1, name=f"{name}.arbiter")
        self._busy_time = 0.0
        self.bytes_moved = Counter(f"{name}.bytes")
        self.transactions = Counter(f"{name}.transactions")
        self.bytes_by_master: dict[str, int] = {}

    def transfer(self, nbytes: int, master: str = "dma"):
        """Event firing when *nbytes* have crossed the bus for *master*."""
        return self.sim.process(self._transfer(nbytes, master))

    def _transfer(self, nbytes: int, master: str):
        if nbytes < 0:
            raise ValueError("negative transfer size")
        self.transactions.increment()
        remaining_words = self.spec.words_for(nbytes)
        while remaining_words > 0:
            burst_words = min(remaining_words, self.spec.max_burst_words)
            grant = self._arbiter.request()
            yield grant
            cycles = self.spec.burst_setup_cycles + burst_words
            duration = cycles * self.spec.cycle_time
            self._busy_time += duration
            yield self.sim.timeout(duration)
            self._arbiter.release(grant)
            remaining_words -= burst_words
        self.bytes_moved.increment(nbytes)
        self.bytes_by_master[master] = (
            self.bytes_by_master.get(master, 0) + nbytes
        )
        return nbytes

    def utilization(self, now: float | None = None) -> float:
        """Fraction of elapsed time the bus was held by some master."""
        end = self.sim.now if now is None else now
        return min(1.0, self._busy_time / end) if end > 0 else 0.0

    @property
    def mean_arbitration_wait(self) -> float:
        return self._arbiter.mean_wait

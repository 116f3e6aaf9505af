"""Cell taps: passive observation points for timing analysis.

ATM quality of service made *cell delay variation* (CDV) a first-class
metric: a constant-rate VC is only as good as the regularity of its
cell spacing after multiplexing.  A :class:`CellTap` sits between any
cell producer and its sink, recording per-VC arrival times without
disturbing them, and computes the era's standard measures:

- inter-cell gap statistics per VC,
- one-point CDV against a declared peak rate (the I.356 formulation:
  how early each cell is versus its nominal slot),
- aggregate counts for quick sanity checks.

Used in tests to prove that the transmit engine's pacing emits
contract-regular streams and that multiplex contention is what
introduces jitter.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.atm.addressing import VcAddress
from repro.atm.cell import AtmCell
from repro.sim.core import Simulator
from repro.sim.monitor import WelfordStat


class CellTap:
    """A transparent cell observer in front of *sink*."""

    def __init__(self, sim: Simulator, sink, name: str = "tap") -> None:
        self.sim = sim
        self.sink = sink
        self.name = name
        self.cells_seen = 0
        self._last_arrival: Dict[VcAddress, float] = {}
        self._gaps: Dict[VcAddress, WelfordStat] = {}

    def receive_cell(self, cell: AtmCell) -> None:
        now = self.sim.now
        vc = cell.vc
        self.cells_seen += 1
        last = self._last_arrival.get(vc)
        if last is not None:
            self._gaps.setdefault(vc, WelfordStat()).add(now - last)
        self._last_arrival[vc] = now
        receive = getattr(self.sink, "receive_cell", None)
        if receive is not None:
            receive(cell)
        else:
            self.sink(cell)

    __call__ = receive_cell

    # -- readouts -----------------------------------------------------------

    def gap_stats(self, vc: VcAddress) -> Optional[WelfordStat]:
        """Inter-cell gap statistics for *vc* (None if <2 cells seen)."""
        return self._gaps.get(vc)

    def jitter(self, vc: VcAddress) -> float:
        """Standard deviation of the VC's inter-cell gaps (seconds)."""
        stats = self._gaps.get(vc)
        return stats.stdev if stats is not None else 0.0

    def peak_to_peak_cdv(self, vc: VcAddress) -> float:
        """Max minus min inter-cell gap: the crude two-point CDV bound."""
        stats = self._gaps.get(vc)
        if stats is None or stats.n == 0:
            return 0.0
        return stats.maximum - stats.minimum

    def conforms_to_rate(
        self,
        vc: VcAddress,
        peak_rate_bps: float,
        tolerance: float = 1e-9,
    ) -> bool:
        """True if no gap undercut the nominal cell interval.

        The one-point conformance question a GCRA policer with zero
        tau would ask of the observed stream.
        """
        stats = self._gaps.get(vc)
        if stats is None:
            return True
        nominal = (53 * 8) / peak_rate_bps
        return stats.minimum >= nominal - tolerance

    def observed_vcs(self) -> list[VcAddress]:
        return list(self._last_arrival)

"""ERICA-style explicit-rate allocation at switch output ports.

The Explicit Rate Indication for Congestion Avoidance algorithm (Jain
et al.) runs at each contended output port.  Per measurement interval
it tracks the port's input cell rate and the set of VCs seen; from
those it computes, for each forward RM cell in transit:

- ``target = target_utilization * link cell rate``
- ``z = measured input rate / target`` (the overload factor)
- ``fair share = target * w_vc / sum(w_active)`` (weighted)
- ``er_local = max(fair share, CCR / z)``

and stamps ``ER = min(ER, er_local)`` into the cell.  The ``CCR / z``
term is what drives utilization to the target: while the port is
underloaded (z < 1) every source is offered more than its current
rate, and overloaded sources are scaled back in one round trip.
Weighted fair shares extend stock ERICA (which splits the target
evenly); with every source greedy the weights alone set the
allocation, which is what experiment C1 demonstrates.

The allocator attaches to an :class:`~repro.atm.switch.AtmSwitch`
through the duck-typed ``switch.tm`` hook: the switch hands it every
transiting cell *after* header translation together with the resolved
output port, and forwards whatever cell the allocator returns.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from repro.atm.addressing import VcAddress
from repro.atm.cell import AtmCell
from repro.sim.monitor import Counter
from repro.tm.rm import RmCell, RmFormatError, is_rm_cell


class _PortLoad:
    """One output port's rolling measurement window."""

    __slots__ = (
        "window_end",
        "cells_in",
        "active",
        "measured_rate",
        "measured_active",
    )

    def __init__(self, window_end: float) -> None:
        self.window_end = window_end
        self.cells_in = 0
        self.active: Set[VcAddress] = set()
        #: Input rate over the last *completed* window (cells/s), or
        #: None before the first window closes.
        self.measured_rate: Optional[float] = None
        self.measured_active: Set[VcAddress] = set()


class EricaAllocator:
    """Per-port explicit-rate computation for one switch."""

    def __init__(
        self,
        sim,
        switch,
        target_utilization: float = 0.95,
        interval: float = 1e-3,
        weight_of: Optional[Callable[[VcAddress], Optional[int]]] = None,
        name: str = "",
    ) -> None:
        if not 0 < target_utilization <= 1:
            raise ValueError("target utilization must sit in (0, 1]")
        if interval <= 0:
            raise ValueError("measurement interval must be positive")
        self.sim = sim
        self.switch = switch
        self.target_utilization = target_utilization
        self.interval = interval
        self.weight_of = weight_of
        self.name = name or f"{switch.name}.erica"
        self._loads: Dict[int, _PortLoad] = {}
        self.rm_seen = Counter(f"{self.name}.rm-seen")
        self.rm_stamped = Counter(f"{self.name}.rm-stamped")
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.
        self.trace = sim.trace
        sim.components.append(self)
        switch.tm = self

    def _weight(self, vc: VcAddress) -> float:
        if self.weight_of is None:
            return 1.0
        weight = self.weight_of(vc)
        return 1.0 if weight is None or weight <= 0 else float(weight)

    def _load_of(self, port) -> _PortLoad:
        load = self._loads.get(id(port))
        if load is None:
            load = _PortLoad(self.sim.now + self.interval)
            self._loads[id(port)] = load
        return load

    def _roll_window(self, load: _PortLoad) -> None:
        now = self.sim.now
        if now < load.window_end:
            return
        elapsed = self.interval + (now - load.window_end)
        load.measured_rate = load.cells_in / elapsed
        load.measured_active = load.active
        load.cells_in = 0
        load.active = set()
        load.window_end = now + self.interval

    def on_cell(self, port, cell: AtmCell) -> AtmCell:
        """Switch hook: account the cell, stamp ER into forward RM cells."""
        load = self._load_of(port)
        self._roll_window(load)
        load.cells_in += 1
        vc = cell.vc
        load.active.add(vc)
        if not is_rm_cell(cell):
            return cell
        try:
            rm = RmCell.decode(cell)
        except RmFormatError:
            return cell
        self.rm_seen.increment()
        if not rm.forward:
            return cell

        target = self.target_utilization * port.link.spec.cell_rate
        contenders = load.measured_active or load.active
        total_weight = sum(self._weight(member) for member in contenders)
        fair_share = target * self._weight(vc) / max(total_weight, 1.0)
        if load.measured_rate is None:
            # No completed window yet: offer the fair share only, so
            # startup cannot overshoot before the first measurement.
            er_local = fair_share
        else:
            z = max(load.measured_rate / target, 1e-9)
            er_local = max(fair_share, rm.ccr / z)
        if er_local >= rm.er:
            return cell
        stamped = rm.with_er(er_local).encode()
        stamped.meta.update(cell.meta)
        self.rm_stamped.increment()
        if self.trace is not None:
            self.trace.emit(
                "rm.cell.marked",
                actor=self.name,
                cell=stamped,
                er=er_local,
            )
        return stamped

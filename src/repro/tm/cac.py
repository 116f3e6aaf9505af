"""Call admission control: SETUPs bid against per-link contract budgets.

A network that polices (GCRA at the UNI) but never says *no* at call
time just moves congestion from the queues to the policer.  CAC closes
the control plane's half of the traffic contract: each SETUP's traffic
descriptor is booked against every link on its path, and the call is
refused -- with a reason code -- when the books would overflow.

Budgets are kept in GCRA terms: an admitted call books its peak cell
rate (the ``1/T`` of the peak-rate GCRA the UPC enforces) against the
link's peak budget, and a derived sustainable rate against the
sustained budget.  The era's signalling message (and ours, see
:mod:`repro.atm.signalling`) carries only the peak rate, so the
sustainable rate is derived via a configured *burstiness* factor --
a documented simplification over carrying a full SCR/MBS descriptor
(docs/TRAFFIC.md).

Wiring: :meth:`CallAdmissionController.guard` installs the controller
onto a :class:`~repro.atm.signalling.SignallingAgent` -- it composes
with any existing ``on_setup`` policy and books release through the
agent's ``on_call_released`` hook, so budgets drain when calls clear
(graceful RELEASE or timer-forced teardown alike).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.atm.cell import CELL_SIZE
from repro.sim.monitor import Counter


class CacReject(enum.Enum):
    """Why a SETUP was refused."""

    PEAK_OVERCOMMIT = "peak_overcommit"
    SUSTAINED_OVERCOMMIT = "sustained_overcommit"


class _LinkBudget:
    __slots__ = ("link", "peak_capacity", "sustained_capacity",
                 "booked_peak", "booked_sustained")

    def __init__(self, link, peak_capacity: float, sustained_capacity: float):
        self.link = link
        self.peak_capacity = peak_capacity
        self.sustained_capacity = sustained_capacity
        self.booked_peak = 0.0
        self.booked_sustained = 0.0


class CallAdmissionController:
    """Books SETUP traffic descriptors against a path of link budgets."""

    def __init__(
        self,
        sim,
        sustained_fraction: float = 0.5,
        name: str = "cac",
    ) -> None:
        if not 0 < sustained_fraction <= 1:
            raise ValueError("sustained fraction must sit in (0, 1]")
        self.sim = sim
        self.sustained_fraction = sustained_fraction
        self.name = name
        self._budgets: List[_LinkBudget] = []
        self._booked: Dict[int, Tuple[float, float]] = {}
        self.calls_admitted = Counter(f"{name}.admitted")
        self.calls_rejected = Counter(f"{name}.rejected")
        #: Rejection tally itemised by :class:`CacReject` value.
        self.rejections: Dict[str, int] = {}
        #: Observability hook (repro.obs), copied from the simulator: a
        #: TraceRecorder, or None.
        self.trace = sim.trace
        sim.components.append(self)

    def add_link(
        self,
        link,
        peak_budget: Optional[float] = None,
        sustained_budget: Optional[float] = None,
    ) -> None:
        """Put *link* under admission control.

        Budgets are in cells per second; both default to the link's
        cell rate (peak-rate allocation with no overbooking).
        """
        capacity = link.spec.cell_rate
        self._budgets.append(
            _LinkBudget(
                link,
                capacity if peak_budget is None else peak_budget,
                capacity if sustained_budget is None else sustained_budget,
            )
        )

    @property
    def booked_peak(self) -> float:
        """Peak cells/s currently booked on the tightest link."""
        if not self._budgets:
            return 0.0
        return max(budget.booked_peak for budget in self._budgets)

    def headroom(self) -> float:
        """Peak cells/s still admittable across every controlled link."""
        if not self._budgets:
            return float("inf")
        return min(
            budget.peak_capacity - budget.booked_peak
            for budget in self._budgets
        )

    # -- the admission decision ---------------------------------------------------

    def admit(self, message) -> bool:
        """``SignallingAgent.on_setup`` hook: True admits the call."""
        peak = message.peak_rate_bps / (CELL_SIZE * 8)
        sustained = peak * self.sustained_fraction
        for budget in self._budgets:
            if budget.booked_peak + peak > budget.peak_capacity:
                return self._reject(message, CacReject.PEAK_OVERCOMMIT)
            if (
                budget.booked_sustained + sustained
                > budget.sustained_capacity
            ):
                return self._reject(message, CacReject.SUSTAINED_OVERCOMMIT)
        for budget in self._budgets:
            budget.booked_peak += peak
            budget.booked_sustained += sustained
        self._booked[message.call_ref] = (peak, sustained)
        self.calls_admitted.increment()
        if self.trace is not None:
            self.trace.emit(
                "cac.admit",
                actor=self.name,
                call_ref=message.call_ref,
                peak_cells=peak,
            )
        return True

    def _reject(self, message, reason: CacReject) -> bool:
        self.calls_rejected.increment()
        self.rejections[reason.value] = self.rejections.get(reason.value, 0) + 1
        if self.trace is not None:
            self.trace.emit(
                "cac.reject",
                actor=self.name,
                call_ref=message.call_ref,
                cause=reason.value,
            )
        return False

    def release(self, call) -> None:
        """``SignallingAgent.on_call_released`` hook: drain the books.

        Only calls the guarded agent accepted were booked.  A call it
        placed is numbered by its own end and may share a reference
        with one it accepted, so it drains nothing.
        """
        if call.is_caller:
            return
        booked = self._booked.pop(call.call_ref, None)
        if booked is None:
            return
        peak, sustained = booked
        for budget in self._budgets:
            budget.booked_peak = max(0.0, budget.booked_peak - peak)
            budget.booked_sustained = max(
                0.0, budget.booked_sustained - sustained
            )

    # -- wiring -------------------------------------------------------------------

    def guard(self, agent) -> None:
        """Install onto *agent*, composing with its existing policy."""
        existing = agent.on_setup

        def on_setup(message) -> bool:
            if existing is not None and not existing(message):
                return False
            return self.admit(message)

        agent.on_setup = on_setup
        agent.on_call_released = self.release

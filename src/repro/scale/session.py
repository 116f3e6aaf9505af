"""Session engine: thousands of signalled connections, churning.

The paper's massive-multiplexing argument is that one adaptor must
serve the connection *population* of a whole host -- far more virtual
circuits than any per-VC hardware table wants to hold, arriving and
departing continuously.  :class:`SessionEngine` generates that load:
a Poisson arrival process places calls through a
:class:`~repro.atm.signalling.SignallingAgent`, each accepted session
holds its VC for an exponential holding time, pushes a small workload
through it, and releases -- so the open-connection set is a churning
crowd, not a static table.

All randomness is drawn from named :class:`~repro.sim.random.
RandomStreams` (``scale.arrival``, ``scale.hold``), so a seed fully
determines the churn history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.atm.addressing import VcAddress
from repro.atm.signalling import (
    Call,
    CallRefused,
    CallState,
    CallTimeout,
    SignallingAgent,
)
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, WelfordStat
from repro.sim.random import RandomStreams


@dataclass(frozen=True)
class SessionProfile:
    """The statistical shape of the offered session load."""

    #: Poisson arrival rate, sessions per second.
    arrival_rate: float
    #: Mean exponential holding time, seconds.
    holding_time: float
    #: Traffic contract each SETUP carries (what CAC books against).
    peak_rate_bps: Optional[float] = None
    #: PDUs each session pushes through its VC: one right after
    #: CONNECT, and -- when ``pdus_per_session`` is 2 -- one more at the
    #: end of the holding time, which lands *after* an idle gap and so
    #: probes whether the receive CAM still remembers the VC.
    pdus_per_session: int = 1
    sdu_size: int = 256
    #: Stop placing new sessions after this many (None: no cap).
    max_sessions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.holding_time <= 0:
            raise ValueError("holding_time must be positive")
        if self.pdus_per_session < 0:
            raise ValueError("pdus_per_session must be >= 0")
        if self.sdu_size < 1:
            raise ValueError("sdu_size must be >= 1")


class SessionEngine:
    """Drives call churn through a signalling agent.

    The engine owns the caller side only: arrivals, per-session
    workload, holding-time expiry, release.  Admission lives where it
    belongs (a :class:`~repro.tm.cac.CallAdmissionController` guarding
    the *callee* agent); route installation is the experiment's business
    via the agent's ``on_call_active`` / ``on_call_released`` hooks,
    which the engine deliberately leaves untouched.

    Delivered bytes are credited per VC through
    :meth:`record_delivery`, which the experiment wires to the callee's
    PDU-completion hook; the per-VC book feeds the fairness metric and
    the top-K metric aggregation (``repro.obs.instrument``).
    """

    def __init__(
        self,
        sim: Simulator,
        agent: SignallingAgent,
        streams: RandomStreams,
        profile: SessionProfile,
        name: str = "sessions",
    ) -> None:
        self.sim = sim
        self.agent = agent
        self.streams = streams
        self.profile = profile
        self.name = name
        self.sessions_placed = Counter(f"{name}.placed")
        self.sessions_connected = Counter(f"{name}.connected")
        self.sessions_refused = Counter(f"{name}.refused")
        self.sessions_released = Counter(f"{name}.released")
        self.sessions_failed = Counter(f"{name}.failed")
        self.active_sessions = 0
        self.peak_active = 0
        #: SETUP-to-CONNECT latency of every accepted session.
        self.setup_latency = WelfordStat()
        #: Bytes delivered at the far end, by VC (fed from outside via
        #: :meth:`record_delivery`).
        self.delivered_by_vc: Dict[VcAddress, int] = {}
        #: Called with (call, address) when a session connects /
        #: finishes; for experiment bookkeeping beyond the agent hooks.
        self.on_session_active: Optional[Callable[[Call, VcAddress], None]] = None
        self.on_session_done: Optional[Callable[[Call], None]] = None
        self._stopped = False
        sim.components.append(self)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin the Poisson arrival process."""
        self.sim.process(self._arrivals())

    def stop(self) -> None:
        """Place no further sessions (running ones finish normally)."""
        self._stopped = True

    def record_delivery(self, address: VcAddress, nbytes: int) -> None:
        """Credit *nbytes* of goodput to *address* (callee-side hook)."""
        self.delivered_by_vc[address] = (
            self.delivered_by_vc.get(address, 0) + nbytes
        )

    # -- processes ---------------------------------------------------------

    def _arrivals(self):
        profile = self.profile
        while not self._stopped:
            if (
                profile.max_sessions is not None
                and self.sessions_placed.count >= profile.max_sessions
            ):
                return
            yield self.sim.timeout(
                self.streams.exponential(
                    "scale.arrival", 1.0 / profile.arrival_rate
                )
            )
            if self._stopped:
                return
            self.sessions_placed.increment()
            placed_at = self.sim.now
            call = self.agent.place_call(
                peak_rate_bps=profile.peak_rate_bps
            )
            self.sim.process(self._session(call, placed_at))

    def _session(self, call: Call, placed_at: float):
        profile = self.profile
        try:
            address = yield call.connected
        except CallTimeout:
            self.sessions_failed.increment()
            return
        except CallRefused:
            self.sessions_refused.increment()
            return
        connected_at = self.sim.now
        self.setup_latency.add(connected_at - placed_at)
        self.sessions_connected.increment()
        self.active_sessions += 1
        if self.active_sessions > self.peak_active:
            self.peak_active = self.active_sessions
        if self.on_session_active is not None:
            self.on_session_active(call, address)

        hold = self.streams.exponential("scale.hold", profile.holding_time)
        payload = bytes(profile.sdu_size)
        nic = self.agent.interface
        # First PDU(s) right after CONNECT, while the receive CAM is
        # guaranteed warm; the last PDU (when there are >= 2) waits out
        # the holding time and probes a potentially evicted entry.
        pdus = profile.pdus_per_session
        early = pdus - 1 if pdus >= 2 else pdus
        sent = 0
        for _ in range(early):
            if call.state is not CallState.ACTIVE:
                break
            yield nic.send(address, payload)
            sent += 1
        remaining = (connected_at + hold) - self.sim.now
        if remaining > 0:
            yield self.sim.timeout(remaining)
        if sent < pdus and call.state is CallState.ACTIVE:
            yield nic.send(address, payload)
        if call.state is CallState.ACTIVE:
            self.agent.release_call(call)
            yield call.released
        self.active_sessions -= 1
        self.sessions_released.increment()
        if self.on_session_done is not None:
            self.on_session_done(call)

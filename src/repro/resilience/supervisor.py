"""Per-interface link supervision: evidence in, alarms and state out.

A :class:`LinkSupervisor` guards one interface's *receive* direction.
It runs the I.610 continuity-check machinery of
:mod:`repro.atm.oam` -- a CC heartbeat source toward the peer and a
sliding-window sink on the inbound flow -- and folds every piece of
fault evidence into a four-state machine::

                 loss rate > threshold
        UP  ------------------------------>  DEGRADED
         ^  <------------------------------     |
         |        loss rate recovered           | LOC / alarm
         |                                      v
    RECOVERING  <--------------------------  DOWN
         |        CC resumed / RDI silent    ^  |
         +-----------------------------------+  |
              LOC or alarm during hold ---------+

Evidence sources:

- **local LOC**: the CC sink went silent past its window -- our
  inbound path is dead.  While the condition lasts the supervisor
  repeats RDI cells *upstream* (on the management VC and on every
  protected VC) so the far end learns its transmit path failed, and
  repeats AIS *downstream* through ``downstream_inject`` when this
  interface relays a path (mux/switch deployment).
- **remote alarms**: an RDI (or relayed AIS) arriving on the inbound
  flow marks the VC it rode in on as alarmed and takes the link DOWN.
  The condition clears by *absence*: alarm cells repeat while the
  defect persists, so a silence window on alarm arrivals is the
  all-clear.
- **loss rate / loopback**: :meth:`report_loss_rate` (or the built-in
  probe over a watched :class:`~repro.atm.link.PhysicalLink`) and
  :meth:`note_ping_timeout` degrade the link without taking it down.

Recovery is deliberate: a defect-free ``recovery_hold`` in RECOVERING
is required before the supervisor declares UP, at which point
``on_recovered`` fires with the set of VCs that were alarmed -- the
hook :class:`repro.resilience.restore.CallRestorer` uses to re-place
calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Set

from repro.atm.addressing import VcAddress
from repro.atm.oam import (
    AIS,
    RDI,
    AlarmCell,
    ContinuityCell,
    ContinuityCheckSink,
    ContinuityCheckSource,
)

#: Well-known management channel for supervisor heartbeats: VPI 0,
#: VCI 4 -- the conventional end-to-end F4 OAM channel of I.361,
#: inside the reserved VCI range of :mod:`repro.atm.addressing`.
OAM_MGMT_VC = VcAddress(0, 4)


class LinkState(enum.Enum):
    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"
    RECOVERING = "recovering"


@dataclass(frozen=True)
class SupervisorConfig:
    """Timing and thresholds for one supervised interface."""

    cc_period: float = 2e-4  #: heartbeat spacing toward the peer (s)
    cc_silence: float = 7e-4  #: silence before LOC (s); >= 2-3 periods
    alarm_repeat: float = 2e-4  #: RDI/AIS re-send spacing while defect lasts
    alarm_silence: float = 7e-4  #: alarm-free window that clears a remote defect
    recovery_hold: float = 5e-4  #: defect-free RECOVERING time before UP
    degraded_loss_rate: float = 0.05  #: probe loss rate that degrades the link
    probe_period: float = 1e-3  #: loss-rate sampling interval (s)

    def __post_init__(self) -> None:
        for label in ("cc_period", "cc_silence", "alarm_repeat",
                      "alarm_silence", "recovery_hold", "probe_period"):
            if getattr(self, label) <= 0:
                raise ValueError(f"{label} must be positive")


class LinkSupervisor:
    """Fault detection and alarm generation for one interface."""

    def __init__(
        self,
        sim,
        nic,
        config: Optional[SupervisorConfig] = None,
        watch_link=None,
        downstream_inject: Optional[Callable] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.config = config or SupervisorConfig()
        #: Optional PhysicalLink whose loss counters feed the DEGRADED
        #: evidence (typically the *inbound* link of this interface).
        self.watch_link = watch_link
        #: Where AIS goes when this interface relays a path (switch /
        #: mux deployment); endpoints leave it None.
        self.downstream_inject = downstream_inject
        self.name = name or f"{nic.name}.sup"
        source_id = self.name.encode("ascii", "replace")[:12].ljust(12, b"\x00")

        self.state = LinkState.UP
        self.alarmed_vcs: Set[VcAddress] = set()
        self._protected: Set[VcAddress] = set()
        self._local_loc = False
        self._remote_defect = False
        self._last_alarm_at = 0.0
        self._generation = 0
        self._running = False

        # counters (plain ints; read via MetricsRegistry lambdas)
        self.transitions = 0
        self.loc_events = 0
        self.alarms_received = 0
        self.rdi_cells_sent = 0
        self.ais_cells_sent = 0
        self.ping_timeouts_noted = 0

        #: Fired on every transition: ``on_state_change(old, new)``.
        self.on_state_change: Optional[Callable[[LinkState, LinkState], None]] = None
        #: Fired on DOWN->...->UP completion with the frozenset of VCs
        #: that were alarmed during the episode.
        self.on_recovered: Optional[Callable[[FrozenSet[VcAddress]], None]] = None
        #: Fired when a VC first enters the alarmed set.
        self.on_vc_alarm: Optional[Callable[[VcAddress, str], None]] = None
        #: Observability hook (TraceRecorder), duck-typed, copied from
        #: the simulator.
        self.trace = sim.trace
        sim.components.append(self)

        self.cc_source = ContinuityCheckSource(
            sim,
            inject=nic.inject_cell,
            vc=OAM_MGMT_VC,
            period=self.config.cc_period,
            source_id=source_id,
        )
        self.cc_sink = ContinuityCheckSink(
            sim,
            silence=self.config.cc_silence,
            on_loc=self._on_loc,
            on_resume=self._on_cc_resume,
            name=f"{self.name}.ccsink",
        )
        nic.on_cc = self._on_cc_cell
        nic.on_alarm = self._on_alarm_cell
        self._source_id = source_id

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.cc_source.start()
        self.cc_sink.start()
        if self.watch_link is not None:
            self.sim.process(self._loss_probe())

    def stop(self) -> None:
        self._running = False
        self.cc_source.stop()
        self.cc_sink.stop()

    def protect(self, vc: VcAddress) -> None:
        """Register a user VC for per-VC alarm insertion."""
        self._protected.add(vc)

    # -- evidence ----------------------------------------------------------

    def _on_cc_cell(self, cell: ContinuityCell) -> None:
        self.cc_sink.observe(cell)

    def _on_loc(self, now: float) -> None:
        self.loc_events += 1
        self._emit("oam.cc.loc", silence=self.config.cc_silence)
        if not self._local_loc:
            self._local_loc = True
            self.sim.process(self._alarm_repeater())
        self._reassess()

    def _on_cc_resume(self, now: float) -> None:
        self._emit("oam.cc.resumed")
        self._local_loc = False
        self._reassess()

    def _on_alarm_cell(self, alarm: AlarmCell) -> None:
        self.alarms_received += 1
        self._last_alarm_at = self.sim.now
        newly_defective = not self._remote_defect
        if newly_defective:
            self._remote_defect = True
            self.sim.process(self._alarm_clear_watchdog())
            self._emit("oam.alarm.received", kind=alarm.kind, vc=alarm.vc)
        if alarm.vc != OAM_MGMT_VC and alarm.vc not in self.alarmed_vcs:
            self.alarmed_vcs.add(alarm.vc)
            if self.on_vc_alarm is not None:
                self.on_vc_alarm(alarm.vc, alarm.kind)
        if alarm.kind == AIS:
            # An endpoint receiving AIS answers RDI upstream (I.610).
            self._send_alarm(RDI, alarm.vc)
        self._reassess()

    def report_loss_rate(self, rate: float) -> None:
        """External loss-rate evidence (e.g. from a policing tap)."""
        if self.state is LinkState.UP and rate > self.config.degraded_loss_rate:
            self._enter(LinkState.DEGRADED)
        elif (
            self.state is LinkState.DEGRADED
            and rate <= self.config.degraded_loss_rate
        ):
            self._enter(LinkState.UP)

    def note_ping_timeout(self) -> None:
        """A loopback probe on this path went unanswered."""
        self.ping_timeouts_noted += 1
        if self.state is LinkState.UP:
            self._enter(LinkState.DEGRADED)

    def _loss_probe(self):
        prev_sent = self.watch_link.cells_sent.count
        prev_lost = self.watch_link.cells_lost.count
        while self._running:
            yield self.sim.timeout(self.config.probe_period)
            sent = self.watch_link.cells_sent.count
            lost = self.watch_link.cells_lost.count
            delta_sent = sent - prev_sent
            delta_lost = lost - prev_lost
            prev_sent, prev_lost = sent, lost
            if delta_sent > 0:
                self.report_loss_rate(delta_lost / delta_sent)

    # -- alarm generation ---------------------------------------------------

    def _alarm_repeater(self):
        """While the local LOC lasts: RDI upstream, AIS downstream."""
        self._emit("oam.alarm.raised", kind=RDI, vc=OAM_MGMT_VC)
        while self._local_loc and self._running:
            self._send_alarm(RDI, OAM_MGMT_VC)
            for vc in sorted(self._protected):
                self._send_alarm(RDI, vc)
                if self.downstream_inject is not None:
                    self._send_alarm(AIS, vc, inject=self.downstream_inject)
            yield self.sim.timeout(self.config.alarm_repeat)

    def _send_alarm(self, kind: str, vc: VcAddress, inject=None) -> None:
        cell = AlarmCell(vc=vc, kind=kind, source_id=self._source_id).encode()
        if kind == RDI:
            self.rdi_cells_sent += 1
        else:
            self.ais_cells_sent += 1
        (inject or self.nic.inject_cell)(cell)

    def _alarm_clear_watchdog(self):
        """Remote defects clear by absence of alarm cells."""
        while self._remote_defect and self._running:
            deadline = self._last_alarm_at + self.config.alarm_silence
            if self.sim.now >= deadline:
                self._remote_defect = False
                self._reassess()
                return
            yield self.sim.timeout(deadline - self.sim.now)

    # -- state machine ------------------------------------------------------

    def _reassess(self) -> None:
        defect = self._local_loc or self._remote_defect
        if defect:
            self._generation += 1  # supersede any pending hold
            if self.state is not LinkState.DOWN:
                self._enter(LinkState.DOWN)
        elif self.state is LinkState.DOWN:
            self._enter(LinkState.RECOVERING)
            self._generation += 1
            self.sim.process(self._hold(self._generation))

    def _hold(self, generation: int):
        yield self.sim.timeout(self.config.recovery_hold)
        if generation != self._generation or self.state is not LinkState.RECOVERING:
            return
        alarmed = frozenset(self.alarmed_vcs)
        self.alarmed_vcs.clear()
        self._enter(LinkState.UP)
        self._emit("oam.alarm.cleared", vcs=len(alarmed))
        if self.on_recovered is not None:
            self.on_recovered(alarmed)

    def _enter(self, state: LinkState) -> None:
        old, self.state = self.state, state
        self.transitions += 1
        self._emit(
            "link.supervisor.state",
            from_state=old.value,
            to_state=state.value,
        )
        if self.on_state_change is not None:
            self.on_state_change(old, state)

    def _emit(self, name: str, **args) -> None:
        if self.trace is not None:
            self.trace.emit(name, actor=self.name, **args)

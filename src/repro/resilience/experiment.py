"""R2: goodput across a link flap, recovery plane on vs off.

The scenario: two interfaces joined by a point-to-point link pair, a
signalling agent on each end, and a population of calls placing
traffic -- some before and some *during* a deterministic full outage
of the forward link (a :class:`~repro.faults.plan.LinkFlapPlan`-style
``ScheduledLoss`` window).  Both arms of each point share the seed:

- **recovery off**: the seed repo's behaviour.  Calls placed during
  the flap lose their SETUP and hang in CALL_INITIATED forever; their
  goodput never materialises.
- **recovery on**: SETUP/RELEASE retransmission timers
  (:class:`~repro.atm.signalling.SignallingTimers`), a
  :class:`~repro.resilience.supervisor.LinkSupervisor` per interface
  running CC heartbeats and RDI alarms, and a
  :class:`~repro.resilience.restore.CallRestorer` that re-places
  failed and alarmed calls once the supervisor returns to UP.

The headline metric is the recovery *gain*: on-arm minus off-arm
goodput over the whole run, which the acceptance gate requires to be
strictly positive at every seed.  The kernel also audits the two
invariants the recovery plane must not break: every call ends in
ACTIVE or a terminal state (on-arm), and the
:class:`~repro.faults.audit.CellConservationAuditor` ledger still
balances with CC/alarm cells itemised in its ``oam_cells`` bucket.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.atm.errors import ScheduledLoss, UniformLoss
from repro.atm.signalling import (
    CallRefused,
    CallState,
    SignallingAgent,
    SignallingTimers,
)
from repro.faults.audit import CellConservationAuditor
from repro.net import Testbed
from repro.nic.config import aurora_oc3
from repro.resilience.restore import CallRestorer
from repro.resilience.supervisor import LinkSupervisor, SupervisorConfig
from repro.runner import ResultStore, RunLog, SweepSpec, run_sweep
from repro.sim.core import Simulator
from repro.sim.random import RandomStreams

#: R2's retry policy: tight enough that a call placed mid-flap exhausts
#: its budget *during* the outage, handing the baton to the restorer.
R2_TIMERS = SignallingTimers(
    t303=5e-4, t308=5e-4, backoff=2.0, cap=2e-3, max_retries=2, jitter=0.1
)

R2_SUPERVISION = SupervisorConfig(
    cc_period=2e-4,
    cc_silence=7e-4,
    alarm_repeat=2e-4,
    alarm_silence=7e-4,
    recovery_hold=5e-4,
)


def _call_start_times(n_calls: int, flap_start: float, flap_down: float):
    """Half the calls start pre-flap, the rest inside the outage."""
    before = [(i + 1) * 4e-4 for i in range((n_calls + 1) // 2)]
    during = [
        flap_start + min((i + 1) * 4e-4, flap_down / 2)
        for i in range(n_calls // 2)
    ]
    return before + during


def _flap_run(
    seed: int,
    recovery: bool,
    duration: float,
    flap_start: float,
    flap_down: float,
    n_calls: int,
    sdu_size: int,
    send_gap: float,
) -> Dict[str, float]:
    """One arm of an R2 point; returns its scalar observables."""
    sim = Simulator()
    streams = RandomStreams(seed)
    cfg = aurora_oc3()
    flap = ScheduledLoss(
        UniformLoss(1.0, rng=streams.stream("r2.flap")),
        start=flap_start,
        stop=flap_start + flap_down,
    )
    tb = Testbed(default_config=cfg)
    tb.add_host("a").add_host("b")
    tb.connect("a", "b", loss_ab=flap)
    net = tb.build(sim)
    a, b = net.hosts["a"], net.hosts["b"]
    link_ab = net.links["a->b"]
    auditor = CellConservationAuditor(link_ab, b)

    sig_b = SignallingAgent(sim, b, streams=streams, timers=R2_TIMERS if recovery else None)
    sig_a = SignallingAgent(sim, a, streams=streams, timers=R2_TIMERS if recovery else None)

    received: list = []
    sig_b.on_user_pdu = received.append

    restorer: Optional[CallRestorer] = None
    sup_a = sup_b = None
    if recovery:
        sup_a = LinkSupervisor(sim, a, config=R2_SUPERVISION)
        sup_b = LinkSupervisor(sim, b, config=R2_SUPERVISION)
        sig_a.on_call_active = lambda call: sup_a.protect(call.address)
        sig_b.on_call_active = lambda call: sup_b.protect(call.address)
        sup_a.start()
        sup_b.start()
        restorer = CallRestorer(sim, sig_a, sup_a, on_restored=None)

    payload = bytes(sdu_size)
    connected_calls: list = []

    def pump(call):
        try:
            address = yield call.connected
        except CallRefused:
            return
        connected_calls.append(address)
        while sim.now < duration and call.state is CallState.ACTIVE:
            yield a.send(address, payload)
            yield sim.timeout(send_gap)

    if restorer is not None:
        restorer.on_restored = lambda old, new: sim.process(pump(new))

    def place(start_at: float):
        yield sim.timeout(start_at)
        call = sig_a.place_call()
        if restorer is not None:
            restorer.track(call)
        sim.process(pump(call))

    for start_at in _call_start_times(n_calls, flap_start, flap_down):
        sim.process(place(start_at))

    sim.run(until=duration)
    flap_end = flap_start + flap_down

    def window_mbps(t0: float, t1: float) -> float:
        total = sum(c.size for c in received if t0 <= c.received_at < t1)
        return total * 8 / (t1 - t0) / 1e6

    goodput = sum(c.size for c in received) * 8 / duration / 1e6
    pre = window_mbps(0.0, flap_start)
    during = window_mbps(flap_start, flap_end)
    post = window_mbps(flap_end, duration)

    # Drain: retire the heartbeats, then let any retry chain still
    # running reach its terminal state before auditing.  Conservation
    # does not need the (500 ms) reassembly timers: contexts the flap
    # left open are itemised in the ledger's reassembly_open bucket.
    if sup_a is not None:
        sup_a.stop()
        sup_b.stop()
    drain = R2_TIMERS.worst_case_total() + 2e-3
    sim.run(until=duration + drain)
    ledger = auditor.snapshot()
    stuck = len(sig_a.unresolved_calls) + len(sig_b.unresolved_calls)

    return {
        "goodput_mbps": goodput,
        "pre_flap_mbps": pre,
        "during_flap_mbps": during,
        "post_flap_mbps": post,
        "calls_connected": float(len(connected_calls)),
        "calls_restored": float(restorer.calls_restored if restorer else 0),
        "stuck_calls": float(stuck),
        "conserved": 1.0 if ledger.is_conserved else 0.0,
        "unaccounted_cells": float(ledger.unaccounted),
        "oam_cells": float(ledger.oam_cells),
    }


def _r2_point(params: Dict[str, Any], streams: RandomStreams) -> Dict[str, float]:
    """R2 kernel: one seed, both arms.

    The sweep framework hands us per-point streams, but both arms must
    see the *same* flap window and jitter draws, so the kernel derives
    everything from the explicit ``seed`` axis instead (common random
    numbers across the recovery on/off comparison).
    """
    del streams
    common = dict(
        duration=params["duration"],
        flap_start=params["flap_start"],
        flap_down=params["flap_down"],
        n_calls=params["n_calls"],
        sdu_size=params["sdu_size"],
        send_gap=params["send_gap"],
    )
    on = _flap_run(params["seed"], True, **common)
    off = _flap_run(params["seed"], False, **common)
    point = {}
    for key, value in on.items():
        point[f"on_{key}"] = value
    for key, value in off.items():
        point[f"off_{key}"] = value
    point["recovery_gain_mbps"] = on["goodput_mbps"] - off["goodput_mbps"]
    point["post_flap_gain_mbps"] = on["post_flap_mbps"] - off["post_flap_mbps"]
    return point


def run_r2(
    *,
    seeds: Optional[Sequence[int]] = None,
    duration: float = 0.02,
    flap_start: float = 0.006,
    flap_down: float = 0.005,
    n_calls: int = 4,
    sdu_size: int = 4096,
    send_gap: float = 1.5e-3,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    log: Optional[RunLog] = None,
):
    """R2: goodput timeline across a link-flap campaign, recovery on vs off.

    Each seed runs the same flapped scenario twice -- with and without
    the fault-management plane -- and reports whole-run and per-window
    goodput plus the recovery invariants.  See ``docs/RESILIENCE.md``.
    Sweep points build their configs from JSON parameters.
    """
    seeds = tuple(seeds) if seeds is not None else (1, 2, 3)
    from repro.results.experiments import ExperimentResult

    spec = SweepSpec.grid(
        "R2",
        axes={"seed": list(seeds)},
        fixed={
            "duration": duration,
            "flap_start": flap_start,
            "flap_down": flap_down,
            "n_calls": n_calls,
            "sdu_size": sdu_size,
            "send_gap": send_gap,
        },
        x_axis="seed",
    )
    sweep_run = run_sweep(spec, _r2_point, workers=workers, store=store, log=log)
    series = sweep_run.series(name="goodput across a link flap", x_label="seed")
    result = ExperimentResult(
        experiment_id="R2",
        title="Link-flap recovery: goodput with the fault-management "
        "plane on vs off (aurora OC-3)",
        series=series,
    )
    gains = series.column("recovery_gain_mbps")
    on_col = series.column("on_goodput_mbps")
    off_col = series.column("off_goodput_mbps")
    result.metrics["mean_recovery_gain_mbps"] = sum(gains) / len(gains)
    result.metrics["min_recovery_gain_mbps"] = min(gains)
    result.metrics["mean_on_goodput_mbps"] = sum(on_col) / len(on_col)
    result.metrics["mean_off_goodput_mbps"] = sum(off_col) / len(off_col)
    result.metrics["stuck_calls_on"] = sum(series.column("on_stuck_calls"))
    result.metrics["calls_restored_total"] = sum(series.column("on_calls_restored"))
    result.metrics["all_conserved"] = min(
        min(series.column("on_conserved")), min(series.column("off_conserved"))
    )
    result.notes.append(
        "without timers a SETUP lost to the flap hangs its call forever; "
        "with the recovery plane the supervisor detects the outage via CC "
        "silence, RDI tells the caller, and the restorer re-places every "
        "failed or alarmed call once the link holds UP"
    )
    return result


def claims_r2(result) -> Dict[str, bool]:
    """R2's verdicts: recovery pays at every seed and breaks no invariant."""
    m = result.metrics
    return {
        "ledger balances in both arms": m["all_conserved"] == 1,
        "no call stuck with recovery on": m["stuck_calls_on"] == 0,
        "recovery gains goodput at every seed": (
            m["min_recovery_gain_mbps"] > 0
        ),
    }

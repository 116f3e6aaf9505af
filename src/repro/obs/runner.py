"""Traced scenario runner behind ``python -m repro trace <experiment>``.

Each traceable experiment rebuilds a small, fully instrumented version
of the corresponding evaluation scenario: a :class:`TraceRecorder` on
every pipeline component, a :class:`MetricsRegistry` sampling the live
counters, and a :class:`CycleProfiler` on the engines.  The run is
deliberately shorter than the evaluation runs -- a trace is for looking
at individual cells, not for converged averages -- but uses the same
configurations, sources, and wiring, so what Perfetto shows is the
same pipeline the tables measure.

Usage::

    python -m repro trace f2 --out trace.json
    python -m repro trace r1 --out trace.jsonl --metrics metrics.csv

``--out`` picks the exporter by extension: ``.json`` writes a Chrome
``trace_event`` file (load it at https://ui.perfetto.dev), ``.jsonl``
writes one event per line for scripting.  ``--metrics`` does the same
with ``.csv`` / ``.json``.  The report printed to stdout includes the
profiler's measured T1'/T2' cycle-budget tables.
"""

from __future__ import annotations

import argparse
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, instrument
from repro.obs.profiler import CycleProfiler, profile_interface
from repro.obs.trace import TraceRecorder
from repro.sim.core import Simulator


@dataclass
class TracedRun:
    """Everything one instrumented run produced."""

    experiment: str
    title: str
    sim: Simulator
    recorder: TraceRecorder
    registry: MetricsRegistry
    profiler: CycleProfiler
    notes: List[str] = field(default_factory=list)
    #: Every interface the profiler is attached to, in wiring order.
    nics: List[Any] = field(default_factory=list)

    def summary(self) -> str:
        """The human-readable report: events, drops, measured budgets."""
        lines = [
            f"trace {self.experiment}: {self.title}",
            f"  simulated {self.sim.now * 1e3:.3f} ms, "
            f"{len(self.recorder)} events, "
            f"{self.registry.samples_taken} metric samples",
        ]
        tally = TallyCounter(e.name for e in self.recorder.events)
        top = ", ".join(
            f"{name} x{count}" for name, count in tally.most_common(6)
        )
        if top:
            lines.append(f"  busiest events: {top}")
        drops = self.recorder.drop_reasons()
        if drops:
            dropped = ", ".join(
                f"{reason}={count}" for reason, count in sorted(drops.items())
            )
            lines.append(f"  drops: {dropped}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        rendered = self.profiler.render()
        if rendered:
            lines.append("")
            lines.append(rendered)
        return "\n".join(lines)

    def export_trace(self, path: str) -> None:
        """Write the trace; ``.jsonl`` -> JSONL, anything else -> Chrome."""
        if path.endswith(".jsonl"):
            self.recorder.export_jsonl(path)
        else:
            self.recorder.export_chrome(path)

    def export_metrics(self, path: str) -> None:
        """Write the metrics; ``.csv`` -> series CSV, else JSON."""
        if path.endswith(".csv"):
            self.registry.to_csv(path)
        else:
            self.registry.to_json(path)


def _instrument_pair(run: TracedRun, *nics) -> None:
    run.nics.extend(nics)
    for nic in nics:
        nic.attach_trace(run.recorder)
        profile_interface(nic, run.profiler)
        instrument(run.registry, nic)


def _build_f2(run: TracedRun, sdu_size: int = 9180) -> float:
    """F2's transmit scenario: greedy sender over a clean point-to-point."""
    from repro.results.experiments import lab_host
    from repro.nic.config import aurora_oc3
    from repro.workloads.generators import GreedySource
    from repro.workloads.scenarios import build_point_to_point

    config = lab_host(aurora_oc3())
    scenario = build_point_to_point(run.sim, config)
    GreedySource(run.sim, scenario.sender, scenario.vc, sdu_size).start()
    _instrument_pair(run, scenario.sender, scenario.receiver)
    instrument(run.registry, scenario.link_ab, prefix="link_ab.")
    run.title = f"greedy {sdu_size}-byte transmit over {config.link.name}"
    run.notes.append(
        "host software zeroed (lab_host): the trace shows the adaptor "
        "pipeline the paper budgets"
    )
    return 30 * (sdu_size / 48 + 2) * config.link.cell_time


def _build_f3(run: TracedRun, sdu_size: int = 9180) -> float:
    """F3's receive scenario: backlogged wire feeding the RX FIFO."""
    from repro.aal.aal5 import Aal5Segmenter
    from repro.atm.addressing import VcAddress
    from repro.nic.config import aurora_oc3
    from repro.nic.nic import HostNetworkInterface
    from repro.results.experiments import lab_host
    from repro.workloads.generators import make_payload

    config = lab_host(aurora_oc3())
    nic = HostNetworkInterface(run.sim, config, name="rxhost")
    received: List = []
    nic.on_pdu = received.append
    vc = nic.open_vc(address=VcAddress(0, 100))
    nic.start()
    _instrument_pair(run, nic)
    segmenter = Aal5Segmenter(vc.address)
    payload = make_payload(sdu_size)

    def feeder():
        while True:
            for cell in segmenter.segment(payload):
                yield run.sim.timeout(config.link.cell_time)
                run.recorder.tag_cell(cell)
                yield nic.rx_fifo.put(cell)

    run.sim.process(feeder())
    run.title = f"backpressured {sdu_size}-byte receive on {config.link.name}"
    run.notes.append("cells are fed at link rate with upstream buffering")
    return 30 * (sdu_size / 48 + 2) * config.link.cell_time


def _build_r1(
    run: TracedRun,
    sdu_size: int = 8192,
    n_vcs: int = 4,
    loss_rate: float = 0.02,
    seed: int = 7,
) -> float:
    """R1's lossy overload: EPD/PPD on, conservation auditor attached."""
    from dataclasses import replace

    from repro.atm.addressing import VcAddress
    from repro.atm.errors import UniformLoss
    from repro.atm.link import PhysicalLink
    from repro.faults.audit import CellConservationAuditor
    from repro.nic.config import aurora_oc12
    from repro.nic.nic import HostNetworkInterface
    from repro.nic.rx import FrameDiscardPolicy
    from repro.results.experiments import lab_host
    from repro.sim.random import RandomStreams
    from repro.workloads.scenarios import InterleavedCellSource

    config = replace(
        lab_host(aurora_oc12()), frame_discard=FrameDiscardPolicy()
    )
    nic = HostNetworkInterface(run.sim, config, name="rxhost")
    received: List = []
    nic.on_pdu = received.append
    for i in range(n_vcs):
        nic.open_vc(address=VcAddress(0, 100 + i))
    nic.start()
    _instrument_pair(run, nic)
    link = PhysicalLink(
        run.sim,
        config.link,
        sink=nic.rx_input,
        loss_model=UniformLoss(
            loss_rate, rng=RandomStreams(seed).stream("r1.loss")
        ),
        name="lossy-wire",
    )
    link.trace = run.recorder
    instrument(run.registry, link)
    auditor = CellConservationAuditor(link, nic)
    instrument(run.registry, auditor)
    InterleavedCellSource(
        run.sim,
        sink=link.send,
        link=config.link,
        n_vcs=n_vcs,
        sdu_size=sdu_size,
    ).start()
    run.title = (
        f"{n_vcs}-VC overload at {config.link.name}, "
        f"{loss_rate:.1%} cell loss, EPD/PPD on"
    )
    run.notes.append(
        "watch cell.drop events: every lost/refused cell carries its "
        "reason, and the audit.* gauges keep the conservation ledger"
    )
    return 20 * n_vcs * (sdu_size / 48 + 2) * config.link.cell_time


def _build_r2(
    run: TracedRun,
    sdu_size: int = 4096,
    n_calls: int = 4,
    flap_start: float = 0.006,
    flap_down: float = 0.005,
    seed: int = 1,
) -> float:
    """R2's recovery-on arm: link flap, supervisors, timers, restorer."""
    from repro.atm.errors import ScheduledLoss, UniformLoss
    from repro.atm.signalling import (
        CallRefused,
        CallState,
        SignallingAgent,
    )
    from repro.faults.audit import CellConservationAuditor
    from repro.net import Testbed
    from repro.nic.config import aurora_oc3
    from repro.resilience.experiment import (
        R2_SUPERVISION,
        R2_TIMERS,
        _call_start_times,
    )
    from repro.resilience.restore import CallRestorer
    from repro.resilience.supervisor import LinkSupervisor
    from repro.sim.random import RandomStreams

    duration = 0.02
    sim = run.sim
    streams = RandomStreams(seed)
    config = aurora_oc3()
    flap = ScheduledLoss(
        UniformLoss(1.0, rng=streams.stream("r2.flap")),
        start=flap_start,
        stop=flap_start + flap_down,
    )
    tb = Testbed(default_config=config)
    tb.add_host("a").add_host("b")
    tb.connect("a", "b", loss_ab=flap)
    net = tb.build(sim)
    a, b = net.hosts["a"], net.hosts["b"]
    link_ab, link_ba = net.links["a->b"], net.links["b->a"]
    _instrument_pair(run, a, b)
    link_ab.trace = run.recorder
    link_ba.trace = run.recorder
    instrument(run.registry, link_ab, prefix="link_ab.")
    auditor = CellConservationAuditor(link_ab, b)
    instrument(run.registry, auditor)

    sig_a = SignallingAgent(sim, a, streams=streams, timers=R2_TIMERS)
    sig_b = SignallingAgent(sim, b, streams=streams, timers=R2_TIMERS)
    sig_a.trace = run.recorder
    sig_b.trace = run.recorder
    instrument(run.registry, sig_a, prefix="sig_a.")
    instrument(run.registry, sig_b, prefix="sig_b.")
    sup_a = LinkSupervisor(sim, a, config=R2_SUPERVISION, name="sup-a")
    sup_b = LinkSupervisor(sim, b, config=R2_SUPERVISION, name="sup-b")
    sup_a.trace = run.recorder
    sup_b.trace = run.recorder
    instrument(run.registry, sup_a, prefix="sup_a.")
    instrument(run.registry, sup_b, prefix="sup_b.")
    sig_a.on_call_active = lambda call: sup_a.protect(call.address)
    sig_b.on_call_active = lambda call: sup_b.protect(call.address)
    sup_a.start()
    sup_b.start()
    restorer = CallRestorer(sim, sig_a, sup_a)

    payload = bytes(sdu_size)

    def pump(call):
        try:
            address = yield call.connected
        except CallRefused:
            return
        while sim.now < duration and call.state is CallState.ACTIVE:
            yield a.send(address, payload)
            yield sim.timeout(1.5e-3)

    restorer.on_restored = lambda old, new: sim.process(pump(new))

    def place(start_at: float):
        yield sim.timeout(start_at)
        call = sig_a.place_call()
        restorer.track(call)
        sim.process(pump(call))

    for start_at in _call_start_times(n_calls, flap_start, flap_down):
        sim.process(place(start_at))

    run.title = (
        f"{n_calls}-call link flap on {config.link.name} with the "
        "fault-management plane on (R2's recovery arm)"
    )
    run.notes.append(
        "watch oam.cc.loc / oam.alarm.* / link.supervisor.state / "
        "sig.retransmit / sig.call.restored: the alarm protocol and the "
        "restorer acting across the outage window"
    )
    return duration


def _build_c1(
    run: TracedRun,
    n_sources: int = 3,
    buffer_cells: int = 256,
    efci_threshold: int = 64,
    sdu_size: int = 1528,
    seed: int = 1,
) -> float:
    """C1's closed-loop arm: ABR sources converging at a bottleneck."""
    from repro.atm.addressing import VcAddress
    from repro.net import Testbed
    from repro.nic.config import aurora_oc3
    from repro.sim.random import RandomStreams
    from repro.tm.abr import AbrAgent, AbrParams
    from repro.tm.erica import EricaAllocator
    from repro.tm.experiment import C1_TARGET_UTILIZATION
    from repro.workloads.generators import GreedySource

    sim = run.sim
    streams = RandomStreams(seed)
    cfg = aurora_oc3()
    spec = cfg.link
    weights = {VcAddress(0, 32 + i): i + 1 for i in range(n_sources)}
    vcs = sorted(weights, key=lambda vc: vc.vci)

    tb = Testbed(default_config=cfg)
    for i in range(n_sources):
        tb.add_host(f"s{i}")
    tb.add_host("d")
    tb.add_switch("sw1").add_switch("sw2")
    tb.link(
        "sw1",
        "sw2",
        buffer_cells=buffer_cells,
        efci_threshold=efci_threshold,
        port_name="bottleneck",
    )
    tb.link("sw2", "d", port_name="p-egress")
    for i in range(n_sources):
        tb.link("sw2", f"s{i}", port_name=f"p-ret{i}")
    for i in range(n_sources):
        tb.link(f"s{i}", "sw1")
    tb.link("d", "sw2")
    for i, vc in enumerate(vcs):
        tb.vc(vc, [f"s{i}", "sw1", "sw2", "d"])
        tb.route(vc, ["d", "sw2", f"s{i}"])
    net = tb.build(sim)
    sources = [net.hosts[f"s{i}"] for i in range(n_sources)]
    dest = net.hosts["d"]
    mid = net.links["sw1->sw2"]
    to_dest = net.links["sw2->d"]
    bottleneck = net.ports["bottleneck"]
    for i in range(n_sources):
        net.links[f"s{i}->sw1"].trace = run.recorder

    erica = EricaAllocator(
        sim,
        net.switches["sw1"],
        target_utilization=C1_TARGET_UTILIZATION,
        weight_of=weights.get,
    )
    dest_agent = AbrAgent(sim, dest)
    params = AbrParams(
        pcr=spec.cell_rate,
        icr=spec.cell_rate / 16.0,
        rif=1.0 / 32.0,
        rdf=1.0 / 16.0,
    )
    agents = []
    for i, vc in enumerate(vcs):
        agent = AbrAgent(sim, sources[i])
        agent.add_vc(vc, params)
        agents.append(agent)

    _instrument_pair(run, *sources, dest)
    mid.trace = run.recorder
    to_dest.trace = run.recorder
    instrument(run.registry, mid, prefix="mid.")
    bottleneck.trace = run.recorder
    instrument(run.registry, bottleneck, prefix="bottleneck.")
    erica.trace = run.recorder
    instrument(run.registry, erica)
    for agent in agents + [dest_agent]:
        agent.trace = run.recorder
        instrument(run.registry, agent)

    start_rng = streams.stream("c1.start")
    for i, vc in enumerate(vcs):
        source = GreedySource(sim, sources[i], vc, sdu_size, name=f"greedy{i}")
        sim.schedule_call(start_rng.uniform(0.0, 2e-3), source.start)
    dest.start()

    run.title = (
        f"{n_sources} weighted ABR sources at an OC-3 bottleneck "
        "(C1's closed-loop arm)"
    )
    run.notes.append(
        "watch rm.cell.sent / rm.cell.marked / rm.cell.turnaround / "
        "abr.rate.update / port.efci: the explicit-rate loop closing "
        "around the bottleneck queue"
    )
    return 0.01


def _build_s1(
    run: TracedRun,
    arrival_rate: float = 600.0,
    holding_time: float = 0.05,
    pdus_per_session: int = 2,
    sdu_size: int = 256,
    cam_entries: int = 32,
    reassembly_quota: int = 64,
    seed: int = 1,
) -> float:
    """S1's churn scenario at trace scale: signalled sessions through CAC."""
    from dataclasses import replace

    from repro.atm.signalling import SIGNALLING_VC, SignallingAgent
    from repro.faults.audit import CellConservationAuditor
    from repro.net import Testbed
    from repro.nic.config import aurora_oc3
    from repro.scale.experiment import _FWD, _REV
    from repro.scale.session import SessionEngine, SessionProfile
    from repro.sim.random import RandomStreams
    from repro.tm.cac import CallAdmissionController

    duration = 0.2
    sim = run.sim
    streams = RandomStreams(seed)
    cfg = replace(
        aurora_oc3(),
        cam_entries=cam_entries,
        cam_eviction="lru",
        reassembly_quota=reassembly_quota,
    )

    # The same two-switch fabric run_s1 churns at 2k+ VCs, shrunk to a
    # few dozen concurrent sessions so individual SETUP/CONNECT/RELEASE
    # exchanges stay legible in the trace.
    tb = Testbed(default_config=cfg)
    tb.add_host("caller").add_host("callee")
    tb.add_switch("sw1").add_switch("sw2")
    tb.link("caller", "sw1")
    tb.link("sw1", "sw2", port_name="p-fwd")
    tb.link("sw2", "callee", port_name="p-egress")
    tb.link("callee", "sw2")
    tb.link("sw2", "sw1", port_name="p-rev")
    tb.link("sw1", "caller", port_name="p-ret")
    tb.route(SIGNALLING_VC, _FWD)
    tb.route(SIGNALLING_VC, _REV)
    net = tb.build(sim)
    caller, callee = net.hosts["caller"], net.hosts["callee"]
    _instrument_pair(run, caller, callee)
    for link in net.links.values():
        link.trace = run.recorder
    instrument(run.registry, net.links["sw1->sw2"], prefix="mid.")
    instrument(run.registry, net.ports["p-egress"], prefix="egress.")

    auditor = CellConservationAuditor(
        net.links["caller->sw1"],
        callee,
        switches=list(net.switches.values()),
        ports=[net.ports[p] for p in ("p-fwd", "p-egress", "p-rev", "p-ret")],
        extra_links=[
            net.links[n]
            for n in ("sw1->sw2", "sw2->callee", "sw2->sw1", "sw1->caller")
        ],
        extra_injections=[net.links["callee->sw2"]],
        extra_receivers=[caller],
    )
    instrument(run.registry, auditor)

    callee_sig = SignallingAgent(
        sim, callee, streams=streams, name="callee-sig", shape_data_vcs=False
    )
    caller_sig = SignallingAgent(
        sim, caller, streams=streams, name="caller-sig", shape_data_vcs=False
    )
    callee_sig.trace = run.recorder
    caller_sig.trace = run.recorder
    instrument(run.registry, caller_sig, prefix="sig.")
    cac = CallAdmissionController(sim)
    cac.add_link(net.links["sw1->sw2"])
    cac.guard(callee_sig)
    instrument(run.registry, cac, prefix="cac.")

    caller_sig.on_call_active = lambda call: net.add_route(call.address, _FWD)
    caller_sig.on_call_released = lambda call: net.remove_route(
        call.address, _FWD
    )

    engine = SessionEngine(
        sim,
        caller_sig,
        streams,
        SessionProfile(
            arrival_rate=arrival_rate,
            holding_time=holding_time,
            peak_rate_bps=64000.0,
            pdus_per_session=pdus_per_session,
            sdu_size=sdu_size,
        ),
    )
    callee_sig.on_user_pdu = lambda completion: engine.record_delivery(
        completion.vc, completion.size
    )
    instrument(run.registry, engine, prefix="sessions.")

    engine.start()
    callee.start()
    # One call placed at t=0, so even a sub-millisecond smoke trace
    # captures a full SETUP/CONNECT exchange before the first Poisson
    # arrival lands.
    caller_sig.place_call(peak_rate_bps=64000.0)

    run.title = (
        f"Poisson session churn (~{arrival_rate * holding_time:.0f} "
        f"concurrent) through a two-switch fabric, CAM={cam_entries} "
        "(S1's scenario at trace scale)"
    )
    run.notes.append(
        "watch rx.cam.evict / rx.cam.miss and cell.drop(unknown_vc): "
        "calls churn VCs through a CAM smaller than the connection "
        "population, released VCs' stragglers land as unroutable, and "
        "the audit.* ledger closes over both directions of the fabric"
    )
    return duration


def _build_quickstart(run: TracedRun, sdu_size: int = 4096) -> float:
    """The examples/quickstart.py exchange, instrumented end to end."""
    from repro.nic.config import aurora_oc3
    from repro.workloads.generators import GreedySource
    from repro.workloads.scenarios import build_point_to_point

    config = aurora_oc3()
    scenario = build_point_to_point(run.sim, config)
    GreedySource(
        run.sim, scenario.sender, scenario.vc, sdu_size, total_pdus=5
    ).start()
    _instrument_pair(run, scenario.sender, scenario.receiver)
    instrument(run.registry, scenario.link_ab, prefix="link_ab.")
    run.title = f"five {sdu_size}-byte PDUs with full host costs"
    run.notes.append(
        "host costs are NOT zeroed here: interrupt and driver events "
        "appear between DMA completion and delivery"
    )
    return 10 * (sdu_size / 48 + 2) * config.link.cell_time


#: experiment id -> (builder, one-line description).
TRACEABLE: Dict[str, Tuple[Callable[[TracedRun], float], str]] = {
    "f2": (_build_f2, "greedy transmit path (F2's scenario)"),
    "f3": (_build_f3, "backpressured receive path (F3's scenario)"),
    "r1": (_build_r1, "lossy overload with frame discard (R1's scenario)"),
    "r2": (_build_r2, "link-flap recovery plane (R2's recovery-on arm)"),
    "c1": (_build_c1, "ABR bottleneck control loop (C1's closed-loop arm)"),
    "s1": (_build_s1, "session churn at scale (S1's scenario, shrunk)"),
    "quickstart": (_build_quickstart, "the README quickstart exchange"),
}


def run_traced(
    experiment: str,
    duration: Optional[float] = None,
    sample_period: Optional[float] = None,
) -> TracedRun:
    """Build, instrument, and run one traceable experiment."""
    key = experiment.lower()
    entry = TRACEABLE.get(key)
    if entry is None:
        raise KeyError(
            f"unknown traceable experiment {experiment!r}; "
            f"known: {', '.join(sorted(TRACEABLE))}"
        )
    builder, _ = entry
    sim = Simulator()
    run = TracedRun(
        experiment=key,
        title="",
        sim=sim,
        recorder=TraceRecorder(sim),
        registry=MetricsRegistry(sim),
        profiler=CycleProfiler(),
    )
    default_duration = builder(run)
    window = duration if duration is not None else default_duration
    run.registry.start_sampling(
        sample_period if sample_period is not None else window / 50
    )
    sim.run(until=window)
    run.registry.sample()
    return run


def build_parser() -> argparse.ArgumentParser:
    """The ``repro trace`` argument parser (shared with DOC103 checks)."""
    parser = argparse.ArgumentParser(
        prog="repro-atm trace",
        description="Run one experiment fully instrumented and export the trace.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(TRACEABLE),
        help="scenario to trace",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="trace output: .json = Chrome/Perfetto, .jsonl = line JSON",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="metrics output: .csv = sampled series, .json = full snapshot",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds (default: scenario-appropriate)",
    )
    parser.add_argument(
        "--sample-period",
        type=float,
        default=None,
        help="metric sampling period in simulated seconds",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    run = run_traced(
        args.experiment,
        duration=args.duration,
        sample_period=args.sample_period,
    )
    print(run.summary())
    if args.out:
        run.export_trace(args.out)
        print(f"  trace written to {args.out}")
    if args.metrics:
        run.export_metrics(args.metrics)
        print(f"  metrics written to {args.metrics}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

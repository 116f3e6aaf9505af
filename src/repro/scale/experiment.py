"""S1: massive multiplexing -- thousands of churning VCs on one adaptor.

The scenario the paper's connection-table sizing argues about::

    caller --> sw1 ==fwd port==> sw2 --> callee      (data + SETUP)
    caller <-- sw1 <==rev port== sw2 <-- callee      (CONNECT/RELEASE)

One host pair, a two-switch fabric, and a :class:`~repro.scale.session.
SessionEngine` driving Poisson call churn through the signalling plane
under admission control: thousands of concurrent sessions, each opening
a VC, pushing a couple of PDUs, and releasing.  Every subsystem the
scale plane added is on the hook at once:

- the callee's CAM is *smaller than the connection population*, so the
  LRU policy churns entries; each session's end-of-hold PDU probes an
  entry that may have been displaced (``cam.capacity_misses``);
- forwarding state is installed/removed per call through the declarative
  :class:`~repro.net.Testbed` routes, so released VCs' stragglers land
  in the switches' ``unroutable`` ledger bucket -- conservation must
  balance across the full churn history;
- per-VC observability books are bounded (top-K aggregation), checked
  by the registry-cardinality metric.

Gates: :func:`claims_s1` (peak concurrency at or above 2,048 sessions
at every seed, a balanced ledger, no failed session), plus the metrics
frozen in ``benchmarks/baselines/S1.json`` (metric cardinality among
them).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional, Sequence

from repro.atm.signalling import SIGNALLING_VC, SignallingAgent
from repro.faults.audit import CellConservationAuditor
from repro.net import Testbed
from repro.nic.config import aurora_oc3
from repro.obs.metrics import MetricsRegistry, instrument
from repro.runner import ResultStore, RunLog, SweepSpec, run_sweep
from repro.scale.session import SessionEngine, SessionProfile
from repro.sim.core import Simulator
from repro.sim.random import RandomStreams
from repro.tm.cac import CallAdmissionController

#: The concurrency bar S1 must clear (the paper's "thousands of VCs").
S1_TARGET_CONCURRENT = 2048

_FWD = ("caller", "sw1", "sw2", "callee")
_REV = ("callee", "sw2", "sw1", "caller")


def _jain(values) -> float:
    """Jain's fairness index over *values* (1.0 = perfectly fair)."""
    values = [float(v) for v in values if v > 0]
    if not values:
        return 0.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    return square_of_sum / (len(values) * sum_of_squares)


def _churn_run(
    seed: int,
    duration: float,
    arrival_rate: float,
    holding_time: float,
    peak_rate_bps: float,
    pdus_per_session: int,
    sdu_size: int,
    cam_entries: int,
    reassembly_quota: int,
) -> Dict[str, float]:
    """One churn history; returns its scalar observables."""
    sim = Simulator()
    streams = RandomStreams(seed)
    cfg = replace(
        aurora_oc3(),
        cam_entries=cam_entries,
        cam_eviction="lru",
        reassembly_quota=reassembly_quota,
    )

    tb = Testbed(default_config=cfg)
    tb.add_host("caller").add_host("callee")
    tb.add_switch("sw1").add_switch("sw2")
    tb.link("caller", "sw1")
    tb.link("sw1", "sw2", port_name="p-fwd")
    tb.link("sw2", "callee", port_name="p-egress")
    tb.link("callee", "sw2")
    tb.link("sw2", "sw1", port_name="p-rev")
    tb.link("sw1", "caller", port_name="p-ret")
    # The control plane's well-known channel is routed statically, both
    # ways; data-VC routes come and go with the sessions.
    tb.route(SIGNALLING_VC, _FWD)
    tb.route(SIGNALLING_VC, _REV)
    net = tb.build(sim)
    caller, callee = net.hosts["caller"], net.hosts["callee"]

    # The fabric is bidirectional (CONNECT/RELEASE ride the reverse
    # path through the same switches), so the audit closes the whole
    # domain: both injection links, all four ports, both receivers.
    auditor = CellConservationAuditor.closed(sim.components)

    # Data VCs ride unshaped: a single-engine pacer head-of-line blocks
    # at per-VC kilobit rates, which is a TX-scheduling story (T-series),
    # not the multiplexing-scale story S1 measures.  CAC still books the
    # 64 kb/s contract each SETUP carries.
    callee_sig = SignallingAgent(
        sim, callee, streams=streams, name="callee-sig", shape_data_vcs=False
    )
    caller_sig = SignallingAgent(
        sim, caller, streams=streams, name="caller-sig", shape_data_vcs=False
    )
    cac = CallAdmissionController(sim)
    cac.add_link(net.links["sw1->sw2"])
    cac.guard(callee_sig)

    # Per-call forwarding state: installed when the caller learns the
    # VC, torn down at release -- stragglers hit the unroutable bucket.
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
            peak_rate_bps=peak_rate_bps,
            pdus_per_session=pdus_per_session,
            sdu_size=sdu_size,
        ),
    )
    callee_sig.on_user_pdu = lambda completion: engine.record_delivery(
        completion.vc, completion.size
    )

    # The registry exists to prove the cardinality bound: at thousands
    # of VCs its length must stay O(top-K), not O(VCs).
    registry = MetricsRegistry(sim)
    instrument(registry, caller, prefix="caller.")
    instrument(registry, callee, prefix="callee.")
    instrument(registry, net.ports["p-egress"], prefix="egress.")
    instrument(registry, caller_sig, prefix="sig.")
    instrument(registry, cac, prefix="cac.")
    instrument(registry, engine, prefix="sessions.")
    instrument(registry, auditor)

    engine.start()
    callee.start()
    sim.run(until=duration)
    engine.stop()
    ledger = auditor.snapshot()

    delivered = engine.delivered_by_vc
    total_bytes = sum(delivered.values())
    cam = callee.cam
    assert cam is not None
    return {
        "placed": float(engine.sessions_placed.count),
        "connected": float(engine.sessions_connected.count),
        "refused": float(engine.sessions_refused.count),
        "failed": float(engine.sessions_failed.count),
        "released": float(engine.sessions_released.count),
        "peak_active": float(engine.peak_active),
        "setup_mean_us": engine.setup_latency.mean * 1e6,
        "setup_max_us": engine.setup_latency.maximum * 1e6,
        "cam_evictions": float(cam.evictions),
        "cam_capacity_misses": float(cam.capacity_misses),
        "cam_miss_ratio": cam.miss_ratio,
        "goodput_mbps": total_bytes * 8 / duration / 1e6,
        "fairness_jain": _jain(delivered.values()),
        "peak_queue_occupancy": float(sim.peak_queue_occupancy),
        "registry_metrics": float(len(registry)),
        "conserved": 1.0 if ledger.is_conserved else 0.0,
        "unaccounted_cells": float(ledger.unaccounted),
        "unroutable_cells": float(ledger.unroutable),
    }


def _s1_point(params: Dict[str, Any], streams: RandomStreams) -> Dict[str, float]:
    """S1 kernel: one seed's churn history.

    Everything derives from the explicit ``seed`` axis; the sweep's
    per-point streams are unused.
    """
    del streams
    common = dict(
        duration=params["duration"],
        arrival_rate=params["arrival_rate"],
        holding_time=params["holding_time"],
        peak_rate_bps=params["peak_rate_bps"],
        pdus_per_session=params["pdus_per_session"],
        sdu_size=params["sdu_size"],
        cam_entries=params["cam_entries"],
        reassembly_quota=params["reassembly_quota"],
    )
    return _churn_run(params["seed"], **common)


def run_s1(
    *,
    seeds: Optional[Sequence[int]] = None,
    duration: float = 2.0,
    arrival_rate: float = 5000.0,
    holding_time: float = 0.5,
    peak_rate_bps: float = 64000.0,
    pdus_per_session: int = 2,
    sdu_size: int = 256,
    cam_entries: int = 1024,
    reassembly_quota: int = 512,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    log: Optional[RunLog] = None,
):
    """S1: session churn at massive-multiplexing scale.

    Each seed drives a full Poisson churn history (thousands of
    signalled sessions through a two-switch fabric under CAC) and
    reports concurrency, setup latency, CAM pressure, fairness, and the
    conservation ledger.
    """
    seeds = list(seeds) if seeds is not None else [1, 2]
    from repro.results.experiments import ExperimentResult

    spec = SweepSpec.grid(
        "S1",
        axes={"seed": seeds},
        fixed={
            "duration": duration,
            "arrival_rate": arrival_rate,
            "holding_time": holding_time,
            "peak_rate_bps": peak_rate_bps,
            "pdus_per_session": pdus_per_session,
            "sdu_size": sdu_size,
            "cam_entries": cam_entries,
            "reassembly_quota": reassembly_quota,
        },
        x_axis="seed",
    )
    sweep_run = run_sweep(spec, _s1_point, workers=workers, store=store, log=log)
    series = sweep_run.series(
        name="session churn at scale", x_label="seed"
    )
    result = ExperimentResult(
        experiment_id="S1",
        title=(
            "Massive multiplexing: thousands of churning signalled "
            "sessions on one adaptor pair (aurora OC-3)"
        ),
        series=series,
    )
    peaks = series.column("peak_active")
    setup_means = series.column("setup_mean_us")
    result.metrics["min_peak_active"] = min(peaks)
    result.metrics["mean_peak_active"] = sum(peaks) / len(peaks)
    result.metrics["scale_target_met"] = (
        1.0 if min(peaks) >= S1_TARGET_CONCURRENT else 0.0
    )
    result.metrics["mean_setup_us"] = sum(setup_means) / len(setup_means)
    result.metrics["max_setup_us"] = max(series.column("setup_max_us"))
    result.metrics["mean_cam_miss_ratio"] = sum(
        series.column("cam_miss_ratio")
    ) / len(seeds)
    result.metrics["total_cam_evictions"] = sum(series.column("cam_evictions"))
    result.metrics["min_fairness_jain"] = min(series.column("fairness_jain"))
    result.metrics["max_peak_queue_occupancy"] = max(
        series.column("peak_queue_occupancy")
    )
    result.metrics["max_registry_metrics"] = max(
        series.column("registry_metrics")
    )
    result.metrics["all_conserved"] = min(series.column("conserved"))
    result.metrics["total_refused"] = sum(series.column("refused"))
    result.metrics["total_failed"] = sum(series.column("failed"))
    result.notes.append(
        f"the engine must sustain >= {S1_TARGET_CONCURRENT} concurrent "
        "sessions (min_peak_active) with the CAM an order of magnitude "
        "smaller than the connection population; the ledger balances "
        "across the full churn history with released VCs' stragglers "
        "itemised as unroutable/unknown-VC"
    )
    return result


def claims_s1(result) -> Dict[str, bool]:
    """S1's verdicts: thousands of sessions, a balanced ledger, no failure."""
    m = result.metrics
    return {
        f"peak concurrency >= {S1_TARGET_CONCURRENT} at every seed": (
            m["scale_target_met"] == 1
        ),
        "ledger balances across the churn": m["all_conserved"] == 1,
        "no session fails": m["total_failed"] == 0,
    }

"""C1: closed-loop ABR vs open-loop flooding at a 2-switch bottleneck.

N greedy sources, one destination, and a shared bottleneck::

    s0 --access--\\
    s1 --access---> sw1 ==bottleneck port==> mid ==> sw2 --> dest
    s2 --access--/                                    ^
                         dest --return RM---> sw2 ----+--> s0/s1/s2

Every source floods as fast as its interface allows.  The two arms of
each point share the seed (common random numbers):

- **closed loop (on)**: every source VC runs ABR -- dynamic ACR pacing
  with RM cells every Nrm data cells, an ERICA allocator on the
  bottleneck switch stamping weighted-fair explicit rates, EFCI
  marking above a queue threshold, and the destination turning RM
  cells around through switch 2 back to the sources.  Source *i*
  carries weight ``i + 1``, so the converged rates -- and hence the
  delivered goodput split -- must follow a 1:2:...:N ratio.
- **open loop (off)**: the same topology and sources with no rate
  control.  The access links outrun the bottleneck, the port buffer
  fills, tail drops shred most AAL5 frames, and goodput collapses --
  the congestion-collapse baseline the control loop is measured
  against.

Headline gates (frozen in ``benchmarks/baselines/C1.json``): bottleneck
utilization >= 0.9 with the loop closed, per-VC goodput within 10% of
the weighted-fair split, a bounded bottleneck queue, and closed-loop
goodput strictly above open-loop at every seed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.atm.addressing import VcAddress
from repro.net import Testbed
from repro.nic.config import aurora_oc3
from repro.runner import ResultStore, RunLog, SweepSpec, run_sweep
from repro.sim.core import Simulator
from repro.sim.random import RandomStreams
from repro.tm.abr import AbrAgent, AbrParams
from repro.tm.erica import EricaAllocator
from repro.workloads.generators import GreedySource

#: ERICA aims the bottleneck here; the utilization gate sits below it.
C1_TARGET_UTILIZATION = 0.95


def _bottleneck_run(
    seed: int,
    closed_loop: bool,
    duration: float,
    warmup: float,
    n_sources: int,
    buffer_cells: int,
    efci_threshold: int,
    sdu_size: int,
) -> Dict[str, float]:
    """One arm of a C1 point; returns its scalar observables."""
    sim = Simulator()
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
        efci_threshold=efci_threshold if closed_loop else None,
        port_name="bottleneck",
    )
    tb.link("sw2", "d", port_name="p-egress")
    for i in range(n_sources):
        tb.link("sw2", f"s{i}", port_name=f"p-ret{i}")
    for i in range(n_sources):
        tb.link(f"s{i}", "sw1")
    tb.link("d", "sw2")
    for i, vc in enumerate(vcs):
        if closed_loop:
            # No static contract: the ABR agent owns the pacing rate.
            peak = None
        else:
            # Open loop, era-style: every VC shaped to a static
            # contract peak, with the contracts overbooking the
            # bottleneck by ~1.7x and no feedback to say stop.  The
            # slightly unequal peaks keep the three CBR streams from
            # phase-locking into a single winner at the drop-tail
            # merge, so the losses hole every source's frames.
            peak = spec.payload_rate_bps * 0.55 * (1.0 + 0.02 * i)
        # Forward data+RM: source i -> bottleneck -> egress -> dest;
        # backward RM: dest -> switch 2 -> source i.
        tb.vc(vc, [f"s{i}", "sw1", "sw2", "d"], peak_rate_bps=peak)
        tb.route(vc, ["d", "sw2", f"s{i}"])
    net = tb.build(sim)
    sources = [net.hosts[f"s{i}"] for i in range(n_sources)]
    dest = net.hosts["d"]
    mid = net.links["sw1->sw2"]
    bottleneck = net.ports["bottleneck"]

    if closed_loop:
        EricaAllocator(
            sim,
            net.switches["sw1"],
            target_utilization=C1_TARGET_UTILIZATION,
            weight_of=weights.get,
        )
        AbrAgent(sim, dest)  # turnaround side
        params = AbrParams(
            pcr=spec.cell_rate,
            icr=spec.cell_rate / 16.0,
            rif=1.0 / 32.0,
            rdf=1.0 / 16.0,
        )
        for i, vc in enumerate(vcs):
            agent = AbrAgent(sim, sources[i])
            agent.add_vc(vc, params)

    completions: list = []
    dest.on_pdu = lambda c: completions.append((sim.now, c.vc, c.size))

    start_rng = streams.stream("c1.start")
    for i, vc in enumerate(vcs):
        source = GreedySource(
            sim, sources[i], vc, sdu_size, name=f"greedy{i}"
        )
        # Seed-jittered start times decorrelate the startup transient
        # across the sweep (the arms of one point share the draws).
        sim.schedule_call(start_rng.uniform(0.0, 2e-3), source.start)
    dest.start()

    snap: Dict[str, Any] = {}

    def take_snapshot() -> None:
        snap["mid_cells"] = mid.cells_sent.count
        snap["delivered"] = {
            vc: sum(size for _, c_vc, size in completions if c_vc == vc)
            for vc in vcs
        }

    sim.schedule_call(warmup, take_snapshot)
    sim.run(until=duration)

    window = duration - warmup
    utilization = (mid.cells_sent.count - snap["mid_cells"]) / (
        window * spec.cell_rate
    )
    delivered = {
        vc: sum(size for _, c_vc, size in completions if c_vc == vc)
        - snap["delivered"][vc]
        for vc in vcs
    }
    total_bytes = sum(delivered.values())
    total_weight = sum(weights.values())
    fair_dev = 0.0
    if total_bytes:
        for vc in vcs:
            ideal = weights[vc] / total_weight
            share = delivered[vc] / total_bytes
            fair_dev = max(fair_dev, abs(share - ideal) / ideal)
    else:
        fair_dev = 1.0

    return {
        "utilization": utilization,
        "goodput_mbps": total_bytes * 8 / window / 1e6,
        "fair_dev": fair_dev,
        "peak_queue": float(bottleneck.occupancy.maximum),
        "loss_ratio": bottleneck.loss_ratio,
        "efci_marked": float(bottleneck.efci_marked.count),
        "dropped_full": float(bottleneck.dropped_full.count),
    }


def _c1_point(
    params: Dict[str, Any], streams: RandomStreams
) -> Dict[str, float]:
    """C1 kernel: one seed, both arms.

    The sweep framework hands us per-point streams, but both arms must
    see the same start-time jitter, so the kernel derives everything
    from the explicit ``seed`` axis instead (common random numbers
    across the closed/open-loop comparison).
    """
    del streams
    common = dict(
        duration=params["duration"],
        warmup=params["warmup"],
        n_sources=params["n_sources"],
        buffer_cells=params["buffer_cells"],
        efci_threshold=params["efci_threshold"],
        sdu_size=params["sdu_size"],
    )
    on = _bottleneck_run(params["seed"], True, **common)
    off = _bottleneck_run(params["seed"], False, **common)
    point = {}
    for key, value in on.items():
        point[f"on_{key}"] = value
    for key, value in off.items():
        point[f"off_{key}"] = value
    point["goodput_gain_mbps"] = on["goodput_mbps"] - off["goodput_mbps"]
    point["queue_headroom_cells"] = (
        float(params["buffer_cells"]) - on["peak_queue"]
    )
    return point


def run_c1(
    config=None,
    *,
    seeds: Optional[Sequence[int]] = None,
    duration: float = 0.06,
    warmup: float = 0.02,
    n_sources: int = 3,
    buffer_cells: int = 256,
    efci_threshold: int = 64,
    sdu_size: int = 1528,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    log: Optional[RunLog] = None,
):
    """C1: weighted-fair convergence of ABR sources at a bottleneck.

    Each seed runs the same contended scenario twice -- with the ABR
    control loop closed and wide open -- and reports bottleneck
    utilization, the weighted-fairness deviation, queue extremes, and
    the goodput gap.  See ``docs/TRAFFIC.md``.  Sweep points build
    their configs from JSON parameters, so *config* is accepted only
    for the uniform contract.
    """
    del config
    seeds = tuple(seeds) if seeds is not None else (1, 2, 3)
    from repro.results.experiments import ExperimentResult

    spec = SweepSpec.grid(
        "C1",
        axes={"seed": list(seeds)},
        fixed={
            "duration": duration,
            "warmup": warmup,
            "n_sources": n_sources,
            "buffer_cells": buffer_cells,
            "efci_threshold": efci_threshold,
            "sdu_size": sdu_size,
        },
        x_axis="seed",
    )
    sweep_run = run_sweep(spec, _c1_point, workers=workers, store=store, log=log)
    series = sweep_run.series(
        name="closed-loop ABR vs open-loop flooding", x_label="seed"
    )
    result = ExperimentResult(
        experiment_id="C1",
        title="ABR bottleneck: N weighted greedy sources, closed loop "
        "vs open loop (aurora OC-3)",
        series=series,
    )
    on_util = series.column("on_utilization")
    fair = series.column("on_fair_dev")
    gains = series.column("goodput_gain_mbps")
    on_good = series.column("on_goodput_mbps")
    off_good = series.column("off_goodput_mbps")
    on_queue = series.column("on_peak_queue")
    off_queue = series.column("off_peak_queue")
    result.metrics["min_on_utilization"] = min(on_util)
    result.metrics["max_fair_dev"] = max(fair)
    result.metrics["mean_on_goodput_mbps"] = sum(on_good) / len(on_good)
    result.metrics["mean_off_goodput_mbps"] = sum(off_good) / len(off_good)
    result.metrics["min_goodput_gain_mbps"] = min(gains)
    result.metrics["max_on_peak_queue"] = max(on_queue)
    result.metrics["min_off_peak_queue"] = min(off_queue)
    result.metrics["all_queues_bounded"] = (
        1.0 if max(on_queue) < buffer_cells else 0.0
    )
    result.notes.append(
        "open loop: access links outrun the bottleneck, the port buffer "
        "pins at its cap and tail drops shred AAL5 frames; closed loop: "
        "ERICA stamps weighted-fair explicit rates into transiting RM "
        "cells and the sources' ACRs settle on a 1:2:3 split at ~95% "
        "bottleneck load with the queue far from its cap"
    )
    return result

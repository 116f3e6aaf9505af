"""Runners that regenerate every table and figure of the evaluation.

Each ``run_*`` function returns an :class:`ExperimentResult` holding the
tables/series plus provenance notes.  Parameters default to the full
paper-scale configuration.  :data:`EXPERIMENTS` declares each
experiment once: its run function, the reduced *bench* parameters
``python -m repro bench`` runs it with, and its *claims* -- the paper's
verdicts as named booleans over a result at those parameters (each
``claims_*`` sits beside its ``run_*``).  ``bench --check`` gates the
metrics against ``benchmarks/baselines/`` and fails on any false claim.

The sweep-shaped experiments (F6, T5, F7, R1, R2, C1, S1) are
expressed as :class:`~repro.runner.SweepSpec` grids over module-level
*kernels* (``_f7_point`` and friends) executed by
:func:`repro.runner.run_sweep`: ``workers=N`` shards the points over a
process pool with results bit-identical to a serial run, and passing a
:class:`~repro.runner.ResultStore` lets warm re-runs skip unchanged
points entirely.  Kernels must stay module-level (picklable) and pure
in their ``(params, streams)`` arguments -- see docs/RUNNER.md.

Experiment ids follow DESIGN.md §3 (T = table, F = figure).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.aal.aal5 import Aal5Segmenter, cells_for_sdu
from repro.atm.addressing import VcAddress
from repro.analysis.latency import latency_model
from repro.analysis.sweep import Series
from repro.analysis.throughput import (
    end_to_end_throughput_model_mbps,
    rx_saturation_mbps,
    rx_throughput_model_mbps,
    saturating_pdu_size,
    tx_saturation_mbps,
    tx_throughput_model_mbps,
)
from repro.host.interrupts import InterruptSpec
from repro.host.os_model import OsCostModel
from repro.analysis.utilization import (
    host_cycles_per_pdu_hostsar,
    host_cycles_per_pdu_offloaded,
    offload_advantage,
)
from repro.atm.link import STS3C_155, STS12C_622, PhysicalLink
from repro.baselines.hardwired import hardwired_config
from repro.baselines.host_sar import HostSarConfig, HostSarInterface
from repro.baselines.shared_proc import share_engine
from repro.nic.config import NicConfig, aurora_oc3, aurora_oc12
from repro.nic.costs import CellPosition
from repro.nic.nic import HostNetworkInterface
from repro.results.tables import format_series, format_table
from repro.runner import ResultStore, RunLog, SweepSpec, run_sweep
from repro.sim.core import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.generators import (
    GreedySource,
    OnOffSource,
    PoissonSource,
    make_payload,
)
from repro.workloads.scenarios import InterleavedCellSource, build_point_to_point

#: The PDU sizes every size sweep uses (bytes).
DEFAULT_SIZES: Sequence[int] = (40, 64, 128, 256, 512, 1024, 2048, 4096, 9180, 16384, 32768, 65535)


@dataclass
class ExperimentResult:
    """One regenerated table or figure, ready to print or assert on."""

    experiment_id: str
    title: str
    headers: List[str] = field(default_factory=list)
    rows: List[List] = field(default_factory=list)
    series: Optional[Series] = None
    notes: List[str] = field(default_factory=list)
    #: Scalars experiments expose for tests (knees, ratios, verdicts).
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        parts = []
        if self.series is not None:
            parts.append(format_series(self.series, title=f"{self.experiment_id}: {self.title}"))
        if self.rows:
            parts.append(
                format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
            )
        for note in self.notes:
            parts.append(f"  note: {note}")
        if self.metrics:
            metric_text = ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(self.metrics.items())
            )
            parts.append(f"  metrics: {metric_text}")
        return "\n".join(parts)


def canonical_result_json(result: ExperimentResult) -> str:
    """An ExperimentResult as canonical JSON, for byte comparison.

    ``repr``-faithful float serialisation (json round-trips Python
    floats exactly), sorted keys, no whitespace ambiguity: two results
    compare equal iff every reported number, label and note is
    bit-identical.
    """
    payload: Dict[str, Any] = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": result.headers,
        "rows": result.rows,
        "series": None,
        "metrics": result.metrics,
        "notes": result.notes,
    }
    if result.series is not None:
        payload["series"] = {
            "name": result.series.name,
            "x_label": result.series.x_label,
            "x": result.series.x,
            "columns": result.series.columns,
        }
    return json.dumps(payload, sort_keys=True)

def lab_host(config: NicConfig) -> NicConfig:
    """A configuration with free host software, isolating the adaptor.

    Zeroing OS and interrupt costs removes the host pipeline stages so
    measurements characterise the interface itself -- the quantity the
    paper's engine analysis predicts.
    """
    return replace(
        config,
        os_costs=OsCostModel(
            syscall_cycles=0,
            copy_cycles_per_byte=0.0,
            buffer_mgmt_cycles=0,
            wakeup_cycles=0,
            driver_tx_cycles=0,
            driver_rx_cycles=0,
        ),
        interrupt=InterruptSpec(entry_cycles=0, exit_cycles=0),
    )


def steady_goodput_mbps(received: Sequence) -> float:
    """Goodput between the first and last delivery (ramp-up excluded)."""
    if len(received) < 3:
        return 0.0
    span = received[-1].delivered_at - received[0].delivered_at
    nbytes = sum(c.size for c in received[1:])
    return (nbytes * 8 / span) / 1e6 if span > 0 else 0.0


def windowed_goodput_mbps(received: Sequence, t_start: float, t_end: float) -> float:
    """Goodput over [t_start, t_end) by delivery time (warmup excluded).

    Robust when completions arrive in bursts (many VCs finishing PDUs
    together), where first-to-last-delivery spans mismeasure.
    """
    if t_end <= t_start:
        return 0.0
    nbytes = sum(
        c.size for c in received if t_start <= c.delivered_at < t_end
    )
    return (nbytes * 8 / (t_end - t_start)) / 1e6


def _window_for(size: int, base: float, link) -> float:
    """A measurement window long enough for ~40 PDUs of *size* bytes."""
    pdu_time = cells_for_sdu(size) * link.cell_time
    return max(base, 40 * pdu_time)


# ---------------------------------------------------------------------------
# T1 / T2: the engine cycle-budget tables
# ---------------------------------------------------------------------------

def run_t1() -> ExperimentResult:
    """T1: transmit-path per-operation cycle budget.

    Closed-form table of the OC-3 preset's transmit cost model.
    """
    config = aurora_oc3()
    costs = config.tx_costs
    engine = config.tx_engine
    rows = [
        [name, cycles, engine.seconds_for(cycles) * 1e6]
        for name, cycles in costs.breakdown().items()
    ]
    result = ExperimentResult(
        experiment_id="T1",
        title=f"TX segmentation budget on {engine.name}",
        headers=["operation", "cycles", "time (us)"],
        rows=rows,
    )
    for position in CellPosition:
        cycles = costs.cell_cycles(position)
        result.metrics[f"cell_{position.value}_us"] = (
            engine.seconds_for(cycles) * 1e6
        )
    result.metrics["pdu_overhead_us"] = engine.seconds_for(costs.pdu_cycles()) * 1e6
    result.metrics["cell_slot_us"] = config.link.cell_time * 1e6
    result.notes.append(
        f"link {config.link.name}: cell slot {config.link.cell_time * 1e6:.2f} us; "
        f"middle-cell service {result.metrics['cell_middle_us']:.2f} us"
    )
    return result


def claims_t1(result: ExperimentResult) -> Dict[str, bool]:
    """T1's verdicts: every transmit cell fits the STS-3c slot with margin."""
    m = result.metrics
    return {
        "middle cell < half the STS-3c slot": (
            m["cell_middle_us"] < m["cell_slot_us"] / 2
        ),
        "last cell (trailer) > middle cell": (
            m["cell_last_us"] > m["cell_middle_us"]
        ),
        "1 us < per-PDU overhead < 10 us": 1.0 < m["pdu_overhead_us"] < 10.0,
    }


def run_t2() -> ExperimentResult:
    """T2: receive-path per-operation cycle budget (CAM and software).

    Closed-form table of the OC-3 preset's receive cost model.
    """
    config = aurora_oc3()
    costs = config.rx_costs
    engine = config.rx_engine
    rows = [
        [name, cycles, engine.seconds_for(cycles) * 1e6]
        for name, cycles in costs.breakdown().items()
    ]
    result = ExperimentResult(
        experiment_id="T2",
        title=f"RX reassembly budget on {engine.name}",
        headers=["operation", "cycles", "time (us)"],
        rows=rows,
    )
    for position in CellPosition:
        for fitted, label in ((True, "cam"), (False, "sw")):
            cycles = costs.cell_cycles(position, fitted)
            result.metrics[f"cell_{position.value}_{label}_us"] = (
                engine.seconds_for(cycles) * 1e6
            )
    result.metrics["cell_slot_us"] = config.link.cell_time * 1e6
    result.notes.append(
        "receive exceeds transmit per cell: classification plus "
        "reassembly-state work has no transmit analogue"
    )
    return result


def claims_t2(result: ExperimentResult) -> Dict[str, bool]:
    """T2's verdicts: receive is the costlier direction; the CAM carries it."""
    m = result.metrics
    cam = m["cell_middle_cam_us"]
    return {
        "rx middle cell (CAM) > tx middle cell (T1)": (
            cam > run_t1().metrics["cell_middle_us"]
        ),
        "software lookup > 2x the CAM middle cell": (
            m["cell_middle_sw_us"] > 2 * cam
        ),
        "CAM middle cell < STS-3c slot": cam < m["cell_slot_us"],
        "CAM middle cell > STS-12c slot": cam > STS12C_622.cell_time * 1e6,
    }


# ---------------------------------------------------------------------------
# F2 / F3: throughput vs PDU size
# ---------------------------------------------------------------------------

def run_f2(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    window: float = 0.05,
) -> ExperimentResult:
    """F2: transmit throughput vs PDU size (simulated + analytic).

    Deterministic, on the OC-3 preset.
    """
    config = aurora_oc3()
    isolated = lab_host(config)
    series = Series(name="tx throughput", x_label="sdu_bytes")
    for size in sizes:
        run_window = _window_for(size, window, config.link)

        # Interface capability: free host software.
        sim = Simulator()
        scenario = build_point_to_point(sim, isolated)
        GreedySource(sim, scenario.sender, scenario.vc, size).start()
        sim.run(until=run_window)
        interface_mbps = steady_goodput_mbps(scenario.received)

        # End to end: real host software in the pipeline.
        sim2 = Simulator()
        scenario2 = build_point_to_point(sim2, config)
        GreedySource(sim2, scenario2.sender, scenario2.vc, size).start()
        sim2.run(until=run_window)

        series.add_point(
            size,
            interface_sim_mbps=interface_mbps,
            interface_model_mbps=min(
                tx_throughput_model_mbps(config, size),
                rx_throughput_model_mbps(config, size),
            ),
            end_to_end_sim_mbps=steady_goodput_mbps(scenario2.received),
            end_to_end_model_mbps=end_to_end_throughput_model_mbps(config, size),
        )
    result = ExperimentResult(
        experiment_id="F2",
        title=f"TX throughput vs PDU size ({config.link.name})",
        series=series,
    )
    knee = saturating_pdu_size(config, "tx")
    result.metrics["tx_knee_bytes"] = knee
    result.metrics["tx_saturation_mbps"] = tx_saturation_mbps(config)
    result.metrics["link_user_mbps"] = config.link.effective_user_rate_bps / 1e6
    result.notes.append(
        f"engine-limited below ~{knee} bytes, link-limited above"
        if knee > 0
        else "engine never reaches link rate at this clock"
    )
    return result


def claims_f2(result: ExperimentResult) -> Dict[str, bool]:
    """F2's verdicts: transmit saturates the link and tracks the model."""
    series = result.series
    interface = series.column("interface_sim_mbps")
    model = series.column("interface_model_mbps")
    e2e = series.column("end_to_end_sim_mbps")
    mtu = series.x.index(9180)
    return {
        "interface goodput rises with PDU size": interface[0] < interface[-1],
        "9180 B within 10% of min(link, model)": interface[mtu] > 0.9 * min(
            result.metrics["link_user_mbps"], model[mtu]
        ),
        "simulation within 15% of the model at every size": all(
            abs(sim - mod) / mod < 0.15 for sim, mod in zip(interface, model)
        ),
        "smallest PDU: end to end < half the interface": (
            e2e[0] < 0.5 * interface[0]
        ),
        "0 < tx knee < 1024 B": 0 < result.metrics["tx_knee_bytes"] < 1024,
    }


def run_f3(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    window: float = 0.05,
) -> ExperimentResult:
    """F3: receive throughput vs PDU size.

    The receive path is isolated from transmit limits by feeding the
    receive FIFO directly from a backlogged wire model: cells arrive at
    link rate but never overrun (upstream buffering), so the measured
    goodput is min(link, receive engine) -- the paper's sustainable-rate
    quantity.  Deterministic, on the OC-3 preset.
    """
    config = lab_host(aurora_oc3())
    series = Series(name="rx throughput", x_label="sdu_bytes")
    for size in sizes:
        run_window = _window_for(size, window, config.link)
        series.add_point(
            size,
            simulated_mbps=_measure_rx_capacity(config, size, run_window),
            model_mbps=rx_throughput_model_mbps(config, size),
        )
    result = ExperimentResult(
        experiment_id="F3",
        title=f"RX throughput vs PDU size ({config.link.name})",
        series=series,
    )
    knee = saturating_pdu_size(config, "rx")
    result.metrics["rx_knee_bytes"] = knee
    result.metrics["rx_saturation_mbps"] = rx_saturation_mbps(config)
    result.notes.append(
        "receive has the larger per-cell budget (it, not transmit, is "
        "engine-bound at STS-12c), but transmit's serial staging DMA "
        "gives TX the larger per-PDU overhead and the rightmost knee"
    )
    return result


def claims_f3(result: ExperimentResult) -> Dict[str, bool]:
    """F3's verdicts: receive saturates the link left of the transmit knee."""
    series = result.series
    simulated = series.column("simulated_mbps")
    model = series.column("model_mbps")
    return {
        "rx goodput rises with PDU size": simulated[0] < simulated[-1],
        "simulation within 15% of the model at every size": all(
            abs(sim - mod) / mod < 0.15 for sim, mod in zip(simulated, model)
        ),
        "0 < rx knee < tx knee": (
            0
            < result.metrics["rx_knee_bytes"]
            < saturating_pdu_size(aurora_oc3(), "tx")
        ),
        "9180 B: receive runs the link (> 130 Mb/s)": (
            simulated[series.x.index(9180)] > 130.0
        ),
    }


# ---------------------------------------------------------------------------
# F4: latency decomposition
# ---------------------------------------------------------------------------

def run_f4(
    *,
    sizes: Sequence[int] = (64, 1024, 9180, 65535),
    propagation_delay: float = 0.0,
) -> ExperimentResult:
    """F4: unloaded end-to-end latency, modelled stages vs simulation.

    On the OC-3 preset.
    """
    config = aurora_oc3()
    headers = ["sdu_bytes"]
    rows: List[List] = []
    first = True
    measured_by_size: Dict[int, float] = {}
    for size in sizes:
        sim = Simulator()
        scenario = build_point_to_point(
            sim, config, propagation_delay=propagation_delay
        )
        # Time the full user-to-user path: from the send call on the
        # sending host to the receive callback on the receiving host.
        delivery_times: List[float] = []
        scenario.receiver.on_pdu = lambda _c: delivery_times.append(sim.now)
        post_time = sim.now
        scenario.sender.send(scenario.vc, make_payload(size))
        sim.run(until=1.0)
        measured_by_size[size] = (
            delivery_times[0] - post_time if delivery_times else float("nan")
        )

        breakdown = latency_model(config, size, propagation_delay)
        stages = breakdown.as_dict()
        if first:
            headers += [f"{k} (us)" for k in stages] + [
                "model total (us)",
                "simulated (us)",
            ]
            first = False
        rows.append(
            [size]
            + [v * 1e6 for v in stages.values()]
            + [breakdown.total * 1e6, measured_by_size[size] * 1e6]
        )
    result = ExperimentResult(
        experiment_id="F4",
        title=f"Latency decomposition ({config.link.name})",
        headers=headers,
        rows=rows,
    )
    smallest, largest = min(sizes), max(sizes)
    small_model = latency_model(config, smallest, propagation_delay)
    result.metrics["small_pdu_dominant"] = float(
        small_model.dominant_stage() != "link_serialization"
    )
    result.metrics[f"simulated_us_{smallest}"] = measured_by_size[smallest] * 1e6
    result.metrics[f"simulated_us_{largest}"] = measured_by_size[largest] * 1e6
    result.notes.append(
        f"short-PDU latency dominated by '{small_model.dominant_stage()}', "
        "not the wire"
    )
    return result


def claims_f4(result: ExperimentResult) -> Dict[str, bool]:
    """F4's verdicts: software dominates short PDUs, the wire long ones."""
    by_size = {row[0]: dict(zip(result.headers, row)) for row in result.rows}
    stages = result.headers[1:-2]
    small, large = by_size[min(by_size)], by_size[max(by_size)]
    return {
        "simulation within 1% of the model at every size": all(
            abs(row[-1] - row[-2]) / row[-2] < 0.01 for row in result.rows
        ),
        "smallest PDU: software, not the wire, dominates": (
            result.metrics["small_pdu_dominant"] == 1.0
        ),
        "smallest PDU: the wire is < 25% of latency": (
            small["link_serialization (us)"] / small["model total (us)"] < 0.25
        ),
        "largest PDU: the wire dominates": (
            max(stages, key=large.__getitem__) == "link_serialization (us)"
        ),
    }


# ---------------------------------------------------------------------------
# T3: host CPU cost, offloaded vs host-based SAR
# ---------------------------------------------------------------------------

def run_t3(
    *,
    sizes: Sequence[int] = (64, 576, 1500, 9180, 65535),
    pdus: int = 30,
) -> ExperimentResult:
    """T3: host cycles per received PDU -- the offload dividend.

    The OC-3 preset against the host-software SAR baseline.
    """
    nic_config = aurora_oc3()
    # Deep adaptor cell buffer: within a single large PDU, cells arrive
    # faster than a per-cell-interrupt host absorbs them, so clean cost
    # accounting needs the dumb adaptor's one luxury -- onboard RAM.
    sar_config = HostSarConfig(rx_fifo_cells=4096)
    headers = [
        "sdu_bytes",
        "offloaded model (cyc)",
        "offloaded sim (cyc)",
        "host-SAR model (cyc)",
        "host-SAR sim (cyc)",
        "advantage (x)",
    ]
    rows: List[List] = []
    advantages = []
    for size in sizes:
        # Offloaded: measured host cycles per PDU end to end.
        sim = Simulator()
        scenario = build_point_to_point(sim, nic_config)
        GreedySource(
            sim, scenario.sender, scenario.vc, size, total_pdus=pdus
        ).start()
        sim.run(until=2.0)
        offl_sim = (
            scenario.receiver.cpu.total_cycles / len(scenario.received)
            if scenario.received
            else float("nan")
        )

        # Host-SAR: same PDUs through the software baseline, paced to
        # 60% of its analytic receive capacity (a greedy source drives
        # the per-cell-interrupt receiver into collapse -- that failure
        # is T5's story; here we want clean cost accounting).
        sar_model = host_cycles_per_pdu_hostsar(sar_config, size, "rx")
        sustainable = sar_config.host_cpu.clock_hz / sar_model
        sim2 = Simulator()
        tx = HostSarInterface(sim2, sar_config, name="sar-tx")
        rx = HostSarInterface(sim2, sar_config, name="sar-rx")
        link = PhysicalLink(sim2, sar_config.link, sink=rx.rx_input)
        tx.attach_tx_link(link)
        vc = tx.open_vc()
        rx.open_vc(address=vc.address)
        tx.start()
        PoissonSource(
            sim2, tx, vc.address, size, pdus_per_second=0.6 * sustainable
        ).start()
        sim2.run(until=pdus / (0.6 * sustainable))
        sar_sim = (
            rx.cpu.total_cycles / rx.pdus_received.count
            if rx.pdus_received.count
            else float("nan")
        )

        offl_model = host_cycles_per_pdu_offloaded(nic_config, size, "rx")
        sar_model = host_cycles_per_pdu_hostsar(sar_config, size, "rx")
        advantage = offload_advantage(nic_config, sar_config, size, "rx")
        advantages.append(advantage)
        rows.append([size, offl_model, offl_sim, sar_model, sar_sim, advantage])
    result = ExperimentResult(
        experiment_id="T3",
        title="Host CPU cycles per received PDU: offloaded vs host SAR",
        headers=headers,
        rows=rows,
    )
    result.metrics["max_advantage"] = max(advantages)
    result.metrics["min_advantage"] = min(advantages)
    result.notes.append(
        "host-SAR cost grows with the PDU's cell count; offloaded cost "
        "is per-PDU (plus copies)"
    )
    return result


def claims_t3(result: ExperimentResult) -> Dict[str, bool]:
    """T3's verdicts: offload wins by an order of magnitude, and more with size."""
    advantages = [row[-1] for row in result.rows]
    return {
        "offloaded simulation within 10% of its model": all(
            abs(row[2] - row[1]) / row[1] < 0.10 for row in result.rows
        ),
        "host-SAR simulation within 10% of its model": all(
            abs(row[4] - row[3]) / row[3] < 0.10 for row in result.rows
        ),
        "offload advantage grows with PDU size": advantages == sorted(advantages),
        "max offload advantage > 10x": result.metrics["max_advantage"] > 10,
    }


# ---------------------------------------------------------------------------
# F5: FIFO occupancy and loss under burstiness
# ---------------------------------------------------------------------------

def run_f5(
    *,
    fifo_depths: Sequence[int] = (8, 16, 32, 64, 128, 256),
    burst_pdus: float = 8.0,
    sdu_size: int = 9180,
    window: float = 0.04,
) -> ExperimentResult:
    """F5: receive-FIFO sizing when the engine is slower than the link.

    At STS-12c the default 25 MHz receive engine's per-cell time exceeds
    the cell slot, so FIFO occupancy climbs during bursts; the FIFO
    depth determines whether the inter-burst idle rescues it or cells
    spill.
    """
    config = aurora_oc12()
    series = Series(name="rx fifo", x_label="fifo_cells")
    for depth in fifo_depths:
        cfg = replace(config, rx_fifo_cells=depth)
        sim = Simulator()
        scenario = build_point_to_point(sim, cfg)
        source = OnOffSource(
            sim,
            scenario.sender,
            scenario.vc,
            sdu_size,
            mean_burst_pdus=burst_pdus,
            mean_off_time=2e-3,
        )
        source.start()
        sim.run(until=window)
        fifo = scenario.receiver.rx_fifo
        series.add_point(
            depth,
            loss_ratio=fifo.loss_ratio,
            peak_occupancy=fifo.peak_occupancy,
            mean_occupancy=fifo.occupancy.mean(sim.now),
        )
    result = ExperimentResult(
        experiment_id="F5",
        title="RX FIFO loss/occupancy vs depth (STS-12c, bursty load)",
        series=series,
    )
    result.metrics["loss_at_min_depth"] = series.column("loss_ratio")[0]
    result.metrics["loss_at_max_depth"] = series.column("loss_ratio")[-1]
    result.notes.append(
        "loss falls with depth because inter-burst idle drains the "
        "backlog; sustained overload would defeat any depth"
    )
    return result


def claims_f5(result: ExperimentResult) -> Dict[str, bool]:
    """F5's verdicts: shallow FIFOs spill in bursts; depth cures it."""
    loss = result.series.column("loss_ratio")
    peaks = result.series.column("peak_occupancy")
    return {
        "shallowest FIFO loses > 1% of cells": loss[0] > 0.01,
        "deepest FIFO loses nothing": loss[-1] == 0.0,
        "loss never rises with depth": all(
            a >= b - 1e-9 for a, b in zip(loss, loss[1:])
        ),
        "shallowest FIFO fills to its depth": peaks[0] == result.series.x[0],
    }


# ---------------------------------------------------------------------------
# T4: adaptor memory bandwidth budget
# ---------------------------------------------------------------------------

def run_t4(
    *,
    sdu_size: int = 9180,
    window: float = 0.02,
) -> ExperimentResult:
    """T4: buffer-memory traffic per cell vs the memory's capability.

    Compares the OC-3 and OC-12 presets side by side.
    """
    headers = [
        "link",
        "offered (Mb/s)",
        "memory traffic (Mb/s)",
        "available (Mb/s)",
        "headroom (x)",
    ]
    rows: List[List] = []
    headrooms = {}
    for config in (aurora_oc3(), aurora_oc12()):
        sim = Simulator()
        scenario = build_point_to_point(sim, config)
        GreedySource(sim, scenario.sender, scenario.vc, sdu_size).start()
        sim.run(until=window)
        mem = scenario.receiver.buffer_memory
        required = mem.required_bandwidth_bps(window) / 1e6
        available = mem.spec.total_bandwidth_bps / 1e6
        rows.append(
            [
                config.link.name,
                scenario.goodput_mbps(window),
                required,
                available,
                available / required if required else float("inf"),
            ]
        )
        headrooms[config.link.name] = available / required if required else float("inf")
    result = ExperimentResult(
        experiment_id="T4",
        title="Adaptor buffer-memory bandwidth budget (receive side)",
        headers=headers,
        rows=rows,
    )
    for link_name, headroom in headrooms.items():
        result.metrics[f"headroom_{link_name}"] = headroom
    result.notes.append(
        "every user byte is written once and read once: traffic ~= 2x "
        "goodput; dual-ported memory keeps headroom > 1"
    )
    return result


def claims_t4(result: ExperimentResult) -> Dict[str, bool]:
    """T4's verdicts: write-once read-once traffic, with headroom."""
    rows = result.rows
    return {
        "memory traffic within 15% of 2x goodput": all(
            abs(traffic - 2 * offered) <= 0.15 * 2 * offered
            for _link, offered, traffic, _available, _headroom in rows
        ),
        "headroom > 1 on every link": all(row[4] > 1.0 for row in rows),
        "available > traffic on every link": all(row[3] > row[2] for row in rows),
        "STS-3c headroom > 1": result.metrics["headroom_STS-3c"] > 1.0,
        "STS-12c headroom > 1": result.metrics["headroom_STS-12c"] > 1.0,
    }


# ---------------------------------------------------------------------------
# F6: multi-VC interleaving on receive
# ---------------------------------------------------------------------------

def _f6_point(params: Dict[str, Any], streams: RandomStreams) -> Dict[str, float]:
    """F6 kernel: sustainable RX goodput at one VC count, CAM vs software."""
    n_vcs, sdu_size, window = params["n_vcs"], params["sdu_size"], params["window"]
    row = {}
    for cam, label in ((True, "cam_mbps"), (False, "software_mbps")):
        base = aurora_oc3() if cam else aurora_oc3().without_cam()
        # With N VCs completing within one generation, N host buffers
        # are simultaneously in flight through the completion DMA;
        # size the pool to the VC count so buffer starvation does not
        # masquerade as lookup cost.
        base = replace(base, rx_buffer_slots=max(64, 4 * n_vcs))
        config = lab_host(base)
        # One "generation" interleaves one PDU from every VC; the
        # window must span several so bursty completions average out.
        generation = n_vcs * cells_for_sdu(sdu_size) * config.link.cell_time
        run_window = max(window, 8 * generation)
        sim = Simulator()
        nic = HostNetworkInterface(sim, config, name="rxhost")
        received: List = []
        nic.on_pdu = received.append
        source = InterleavedCellSource(
            sim,
            nic.rx_engine,
            config.link,
            n_vcs,
            sdu_size,
            blocking_fifo=nic.rx_fifo,
        )
        for address in source.vcs:
            nic.open_vc(address=address)
        nic.start()
        source.start()
        sim.run(until=run_window)
        row[label] = windowed_goodput_mbps(received, run_window / 4, run_window)
    return row


def run_f6(
    *,
    vc_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    sdu_size: int = 1500,
    window: float = 0.03,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    log: Optional[RunLog] = None,
) -> ExperimentResult:
    """F6: sustainable receive goodput vs interleaved VCs, CAM vs none.

    Cells from N VCs arrive round-robin (one PDU per VC in flight), so
    every reassembly context is touched every N cells.  Delivery uses
    upstream backpressure (blocking FIFO put) to measure the sustainable
    rate rather than overload collapse; the host stages are zeroed so
    the receive engine is the stage under test.  Sweep points build
    their configs from JSON parameters.
    """
    spec = SweepSpec.grid(
        "F6",
        axes={"n_vcs": vc_counts},
        fixed={"sdu_size": sdu_size, "window": window},
    )
    sweep_run = run_sweep(spec, _f6_point, workers=workers, store=store, log=log)
    series = sweep_run.series(name="multi-vc rx")
    result = ExperimentResult(
        experiment_id="F6",
        title="Sustainable RX goodput vs interleaved VCs: CAM vs software lookup",
        series=series,
    )
    cam_col = series.column("cam_mbps")
    sw_col = series.column("software_mbps")
    result.metrics["cam_retention"] = (
        cam_col[-1] / max(cam_col) if max(cam_col) else 0.0
    )
    result.metrics["software_retention"] = (
        sw_col[-1] / max(sw_col) if max(sw_col) else 0.0
    )
    result.notes.append(
        "the CAM's lookup cost is flat in the VC count; the software "
        "probe grows with the table and erodes goodput"
    )
    result.notes.append(
        "the mild CAM-side droop is completion clustering: N interleaved "
        "PDUs finish within one generation and their serial completion "
        "DMAs stall the engine"
    )
    return result


def claims_f6(result: ExperimentResult) -> Dict[str, bool]:
    """F6's verdicts: with the CAM, goodput stays flat as VCs grow."""
    cam = result.series.column("cam_mbps")
    software = result.series.column("software_mbps")
    m = result.metrics
    return {
        "fewest VCs: software within 5% of CAM": (
            abs(cam[0] - software[0]) / cam[0] < 0.05
        ),
        "most VCs: software < 0.75x CAM": software[-1] < 0.75 * cam[-1],
        "CAM retains > 75% of its goodput": m["cam_retention"] > 0.75,
        "software retains less than CAM": (
            m["software_retention"] < m["cam_retention"]
        ),
    }


# ---------------------------------------------------------------------------
# T5: architecture comparison
# ---------------------------------------------------------------------------

#: T5's named point list: the four system alternatives, in table order.
T5_ARCHITECTURES: Sequence[str] = ("dual", "shared", "hardwired", "hostsar")

_T5_LABELS: Dict[str, str] = {
    "dual": "offloaded dual-engine",
    "shared": "offloaded shared-engine",
    "hardwired": "hardwired VLSI",
    "hostsar": "host-software SAR",
}


def _t5_point(params: Dict[str, Any], streams: RandomStreams) -> Dict[str, Any]:
    """T5 kernel: one architecture's capacities under the shared workload."""
    arch, sdu_size, window = params["arch"], params["sdu_size"], params["window"]
    nic_cfg = aurora_oc12()

    if arch == "hostsar":
        # Host-based SAR: the host is the engine; measure transmit
        # capacity directly and receive capacity at a 90%-of-model
        # paced feed.
        sar_cfg = HostSarConfig(link=STS12C_622, rx_fifo_cells=4096)
        sar_model = host_cycles_per_pdu_hostsar(sar_cfg, sdu_size, "rx")
        sustainable = sar_cfg.host_cpu.clock_hz / sar_model
        sim = Simulator()
        tx = HostSarInterface(sim, sar_cfg, name="sar-tx")
        rx = HostSarInterface(sim, sar_cfg, name="sar-rx")
        link = PhysicalLink(sim, sar_cfg.link, sink=rx.rx_input)
        tx.attach_tx_link(link)
        vc = tx.open_vc()
        rx.open_vc(address=vc.address)
        tx.start()
        received: List = []
        rx.on_pdu = received.append
        PoissonSource(
            sim, tx, vc.address, sdu_size, pdus_per_second=0.9 * sustainable
        ).start()
        sar_window = max(window, 40 / sustainable)
        sim.run(until=sar_window)
        rx_cap = windowed_goodput_mbps(received, sar_window / 4, sar_window)
        return {
            "tx_cap_mbps": tx.tx_throughput.megabits_per_second(),
            "rx_cap_mbps": rx_cap,
            "duplex_mbps": rx_cap,
            "host_cycles_per_pdu": sar_model,
            "flexible": "yes",
        }

    shared = arch == "shared"
    base = (
        hardwired_config(STS12C_622, base=nic_cfg)
        if arch == "hardwired"
        else nic_cfg
    )
    cfg = lab_host(base)
    return {
        "tx_cap_mbps": _measure_tx_capacity(cfg, sdu_size, window, shared=shared),
        "rx_cap_mbps": _measure_rx_capacity(cfg, sdu_size, window, shared=shared),
        "duplex_mbps": _measure_duplex_aggregate(
            cfg, sdu_size, window, shared=shared
        ),
        "host_cycles_per_pdu": host_cycles_per_pdu_offloaded(
            nic_cfg, sdu_size, "rx"
        ),
        "flexible": "no" if arch == "hardwired" else "yes",
    }


def run_t5(
    *,
    sdu_size: int = 9180,
    window: float = 0.04,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    log: Optional[RunLog] = None,
) -> ExperimentResult:
    """T5: the four system alternatives under an identical workload.

    Per architecture we measure sustainable transmit capacity, receive
    capacity, and full-duplex aggregate (both directions active on one
    interface -- where a shared engine pays for its single instruction
    stream).  Host cost columns come from the cycle models.  Each
    architecture point builds its own config.
    """
    headers = [
        "architecture",
        "tx cap (Mb/s)",
        "rx cap (Mb/s)",
        "duplex agg (Mb/s)",
        "host cycles/PDU (rx)",
        "flexible",
    ]
    spec = SweepSpec.from_points(
        "T5",
        points=[{"arch": arch} for arch in T5_ARCHITECTURES],
        fixed={"sdu_size": sdu_size, "window": window},
    )
    sweep_run = run_sweep(spec, _t5_point, workers=workers, store=store, log=log)
    rows: List[List] = []
    aggregates: Dict[str, float] = {}
    for point, values in zip(sweep_run.points, sweep_run.values):
        label = _T5_LABELS[point.params["arch"]]
        rows.append(
            [
                label,
                values["tx_cap_mbps"],
                values["rx_cap_mbps"],
                values["duplex_mbps"],
                values["host_cycles_per_pdu"],
                values["flexible"],
            ]
        )
        aggregates[label] = values["duplex_mbps"]

    result = ExperimentResult(
        experiment_id="T5",
        title=f"Architecture comparison, {sdu_size}-byte PDUs at STS-12c",
        headers=headers,
        rows=rows,
    )
    result.metrics["offloaded_vs_hostsar"] = (
        aggregates["offloaded dual-engine"] / aggregates["host-software SAR"]
        if aggregates.get("host-software SAR")
        else float("inf")
    )
    result.metrics["hardwired_vs_offloaded"] = (
        aggregates["hardwired VLSI"] / aggregates["offloaded dual-engine"]
        if aggregates.get("offloaded dual-engine")
        else float("inf")
    )
    result.metrics["dual_vs_shared"] = (
        aggregates["offloaded dual-engine"] / aggregates["offloaded shared-engine"]
        if aggregates.get("offloaded shared-engine")
        else float("inf")
    )
    result.notes.append(
        "offload wins on host cost; hardwired wins on ceiling; the "
        "shared engine pays under full-duplex load"
    )
    return result


def claims_t5(result: ExperimentResult) -> Dict[str, bool]:
    """T5's verdicts: offload wins; one engine per direction pays."""
    rows = {row[0]: row for row in result.rows}
    dual = rows[_T5_LABELS["dual"]]
    shared = rows[_T5_LABELS["shared"]]
    hardwired = rows[_T5_LABELS["hardwired"]]
    hostsar = rows[_T5_LABELS["hostsar"]]
    m = result.metrics
    return {
        "offloaded/host-SAR duplex > 10": m["offloaded_vs_hostsar"] > 10,
        "host-SAR host cycles/PDU > 10x offloaded": hostsar[4] > 10 * dual[4],
        "1 < hardwired/offloaded duplex < 2": (
            1.0 < m["hardwired_vs_offloaded"] < 2.0
        ),
        "dual/shared duplex > 1.3": m["dual_vs_shared"] > 1.3,
        "shared tx capacity == dual": shared[1] == dual[1],
        "shared rx capacity == dual": shared[2] == dual[2],
        "only hardwired gives up flexibility": (
            hardwired[5] == "no" and dual[5] == "yes"
        ),
    }


# ---------------------------------------------------------------------------
# F7: engine clock sweep (ablation)
# ---------------------------------------------------------------------------

def _f7_point(params: Dict[str, Any], streams: RandomStreams) -> Dict[str, float]:
    """F7 kernel: saturation throughput at one engine clock."""
    mhz, sdu_size = params["engine_mhz"], params["sdu_size"]
    base = aurora_oc12()
    config = lab_host(base.with_engines(base.tx_engine.at_clock(mhz * 1e6)))
    point = {
        "tx_model_mbps": tx_throughput_model_mbps(config, sdu_size),
        "rx_model_mbps": rx_throughput_model_mbps(config, sdu_size),
    }
    if params["simulate"]:
        point["tx_sim_mbps"] = _measure_tx_capacity(
            config, sdu_size, params["window"]
        )
        point["rx_sim_mbps"] = _measure_rx_capacity(
            config, sdu_size, params["window"]
        )
    return point


def run_f7(
    *,
    clocks_mhz: Sequence[float] = (10, 16, 20, 25, 33, 40, 50, 66),
    sdu_size: int = 9180,
    window: float = 0.02,
    simulate: bool = True,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    log: Optional[RunLog] = None,
) -> ExperimentResult:
    """F7: how fast must the engines be for each link rate?

    Per direction, the simulated point measures the *sustainable* rate:
    transmit by draining a greedy sender onto the wire, receive by
    feeding the engine through a backpressured FIFO, both with free
    host software.  Sweep points derive their configs from the clock
    axis.
    """
    base = aurora_oc12()
    spec = SweepSpec.grid(
        "F7",
        axes={"engine_mhz": clocks_mhz},
        fixed={"sdu_size": sdu_size, "window": window, "simulate": simulate},
    )
    sweep_run = run_sweep(spec, _f7_point, workers=workers, store=store, log=log)
    series = sweep_run.series(name="clock sweep")
    result = ExperimentResult(
        experiment_id="F7",
        title="Saturation throughput vs engine clock (STS-12c link)",
        series=series,
    )
    oc3_user = STS3C_155.effective_user_rate_bps / 1e6
    oc12_user = STS12C_622.effective_user_rate_bps / 1e6

    def engine_threshold(direction: str, target: float) -> float:
        """Lowest swept clock whose per-cell budget clears *target*."""
        fn = tx_saturation_mbps if direction == "tx" else rx_saturation_mbps
        for mhz in series.x:
            cfg = base.with_engines(base.tx_engine.at_clock(mhz * 1e6))
            if fn(cfg) >= target * 0.999:
                return mhz
        return float("inf")

    result.metrics["rx_mhz_for_oc3"] = engine_threshold("rx", oc3_user)
    result.metrics["rx_mhz_for_oc12"] = engine_threshold("rx", oc12_user)
    result.metrics["tx_mhz_for_oc12"] = engine_threshold("tx", oc12_user)
    result.notes.append(
        "transmit saturates STS-12c at a lower clock than receive; the "
        "receive gap is the case for per-cell hardware assists"
    )
    return result


def claims_f7(result: ExperimentResult) -> Dict[str, bool]:
    """F7's verdicts: the clocks each direction needs for each link rate."""
    series = result.series
    claims: Dict[str, bool] = {}
    for direction in ("tx", "rx"):
        model = series.column(f"{direction}_model_mbps")
        sim = series.column(f"{direction}_sim_mbps")
        claims[f"{direction} model never falls with clock"] = all(
            b >= a - 1e-6 for a, b in zip(model, model[1:])
        )
        claims[f"{direction} simulation within 2% of the model"] = all(
            abs(s - mod) / mod < 0.02 for s, mod in zip(sim, model)
        )
    tx = series.column("tx_model_mbps")
    rx = series.column("rx_model_mbps")
    m = result.metrics
    claims.update({
        "rx runs STS-3c by 16 MHz": m["rx_mhz_for_oc3"] <= 16,
        "tx runs STS-12c from 25 MHz": m["tx_mhz_for_oc12"] == 25,
        "rx runs STS-12c from 33 MHz": m["rx_mhz_for_oc12"] == 33,
        "lowest clock: tx model > rx model": tx[0] > rx[0],
        "highest clock: rx model > tx model": rx[-1] > tx[-1],
    })
    return claims


def _measure_tx_capacity(
    config: NicConfig, sdu_size: int, window: float, shared: bool = False
) -> float:
    """Transmit-side sustainable goodput: sender into a counting sink."""
    sim = Simulator()
    sender = HostNetworkInterface(sim, config, name="txhost")
    if shared:
        share_engine(sender)
    wire_times: List[float] = []

    def sink(cell) -> None:
        if cell.end_of_frame:
            wire_times.append(sim.now)

    link = PhysicalLink(sim, config.link, sink=sink, name="tx-probe")
    sender.attach_tx_link(link)
    vc = sender.open_vc()
    GreedySource(sim, sender, vc.address, sdu_size).start()
    sim.run(until=window)
    return _wire_goodput_mbps(wire_times, sdu_size)


def _wire_goodput_mbps(wire_times: Sequence[float], sdu_size: int) -> float:
    """Goodput from each SDU's last-cell wire-out time (ramp-up excluded)."""
    if len(wire_times) < 3:
        return 0.0
    span = wire_times[-1] - wire_times[0]
    return ((len(wire_times) - 1) * sdu_size * 8 / span) / 1e6 if span > 0 else 0.0


def _feed_rx_fifo(
    sim: Simulator, nic: HostNetworkInterface, address: VcAddress, sdu_size: int
) -> None:
    """Feed *nic*'s RX FIFO from a backlogged wire, one cell per cell time.

    Each cell waits for room (upstream buffering), so the feed never
    overruns the FIFO.
    """
    segmenter = Aal5Segmenter(address)
    payload = make_payload(sdu_size)

    def feeder():
        while True:
            for cell in segmenter.segment(payload):
                yield sim.timeout(nic.config.link.cell_time)
                yield nic.rx_fifo.put(cell)

    sim.process(feeder())


def _measure_rx_capacity(
    config: NicConfig, sdu_size: int, window: float, shared: bool = False
) -> float:
    """Receive-side sustainable goodput: backpressured cell feed."""
    sim = Simulator()
    nic = HostNetworkInterface(sim, config, name="rxhost")
    if shared:
        share_engine(nic)
    received: List = []
    nic.on_pdu = received.append
    vc = nic.open_vc(address=VcAddress(0, 100))
    nic.start()
    _feed_rx_fifo(sim, nic, vc.address, sdu_size)
    sim.run(until=window)
    return steady_goodput_mbps(received)


def _measure_duplex_aggregate(
    config: NicConfig, sdu_size: int, window: float, shared: bool = False
) -> float:
    """Full-duplex sustainable aggregate on one interface.

    The interface transmits greedily (counting sink) while its receive
    path absorbs a backpressured feed; the aggregate is where a shared
    engine's single instruction stream shows up.
    """
    sim = Simulator()
    nic = HostNetworkInterface(sim, config, name="duplexhost")
    if shared:
        share_engine(nic)
    wire_times: List[float] = []

    def sink(cell) -> None:
        if cell.end_of_frame:
            wire_times.append(sim.now)

    link = PhysicalLink(sim, config.link, sink=sink, name="duplex-probe")
    nic.attach_tx_link(link)
    tx_vc = nic.open_vc(address=VcAddress(0, 90))
    rx_vc = nic.open_vc(address=VcAddress(0, 100))
    received: List = []
    nic.on_pdu = received.append
    nic.start()
    GreedySource(sim, nic, tx_vc.address, sdu_size).start()
    _feed_rx_fifo(sim, nic, rx_vc.address, sdu_size)
    sim.run(until=window)
    tx_mbps = _wire_goodput_mbps(wire_times, sdu_size)
    return tx_mbps + steady_goodput_mbps(received)


# ---------------------------------------------------------------------------
# F8: analytic model vs simulation
# ---------------------------------------------------------------------------

def run_f8(
    *,
    sizes: Sequence[int] = (64, 256, 1024, 4096, 9180, 32768),
    window: float = 0.05,
) -> ExperimentResult:
    """F8: cross-validation -- closed forms vs the discrete-event core.

    On the OC-3 preset.
    """
    config = aurora_oc3()
    headers = [
        "sdu_bytes",
        "tx model (Mb/s)",
        "tx sim (Mb/s)",
        "tput err (%)",
        "lat model (us)",
        "lat sim (us)",
        "lat err (%)",
    ]
    rows: List[List] = []
    worst_tput_err = 0.0
    worst_lat_err = 0.0
    for size in sizes:
        model_mbps = min(
            tx_throughput_model_mbps(config, size),
            rx_throughput_model_mbps(config, size),
        )
        sim = Simulator()
        scenario = build_point_to_point(sim, lab_host(config))
        GreedySource(sim, scenario.sender, scenario.vc, size).start()
        sim.run(until=_window_for(size, window, config.link))
        sim_mbps = steady_goodput_mbps(scenario.received)
        tput_err = abs(sim_mbps - model_mbps) / model_mbps * 100

        sim2 = Simulator()
        quiet = build_point_to_point(sim2, config)
        delivery_times: List[float] = []
        quiet.receiver.on_pdu = lambda _c: delivery_times.append(sim2.now)
        post_time = sim2.now
        quiet.sender.send(quiet.vc, make_payload(size))
        sim2.run(until=1.0)
        lat_sim = delivery_times[0] - post_time if delivery_times else float("nan")
        lat_model = latency_model(config, size).total
        lat_err = abs(lat_sim - lat_model) / lat_model * 100

        worst_tput_err = max(worst_tput_err, tput_err)
        worst_lat_err = max(worst_lat_err, lat_err)
        rows.append(
            [size, model_mbps, sim_mbps, tput_err, lat_model * 1e6, lat_sim * 1e6, lat_err]
        )
    result = ExperimentResult(
        experiment_id="F8",
        title="Analytic model vs simulation (STS-3c)",
        headers=headers,
        rows=rows,
    )
    result.metrics["worst_throughput_error_pct"] = worst_tput_err
    result.metrics["worst_latency_error_pct"] = worst_lat_err
    result.notes.append(
        "residual error is pipelining/queueing the closed forms ignore"
    )
    return result


def claims_f8(result: ExperimentResult) -> Dict[str, bool]:
    """F8's verdicts: the closed forms predict the simulation."""
    m = result.metrics
    return {
        "worst throughput error < 5%": m["worst_throughput_error_pct"] < 5.0,
        "worst latency error < 1%": m["worst_latency_error_pct"] < 1.0,
    }


# ---------------------------------------------------------------------------
# A1-A4: design-choice ablations
# ---------------------------------------------------------------------------

def run_a1(
    *,
    sizes: Sequence[int] = (64, 512, 1500, 9180, 65535),
    window: float = 0.03,
) -> ExperimentResult:
    """A1: adaptation-layer efficiency -- AAL5-class vs AAL3/4.

    The simple-and-efficient layer's pitch: AAL3/4 pays 4 of every 48
    payload bytes to per-cell SAR fields (plus a few engine cycles),
    so at link saturation it delivers ~44/48 of AAL5's goodput.
    Compares AAL presets internally.
    """
    series = Series(name="aal efficiency", x_label="sdu_bytes")
    for size in sizes:
        run_window = _window_for(size, window, STS3C_155)
        row = {}
        for label, config in (
            ("aal5_mbps", lab_host(aurora_oc3())),
            ("aal34_mbps", lab_host(aurora_oc3().with_aal34())),
        ):
            sim = Simulator()
            scenario = build_point_to_point(sim, config)
            GreedySource(sim, scenario.sender, scenario.vc, size).start()
            sim.run(until=run_window)
            row[label] = steady_goodput_mbps(scenario.received)
        series.add_point(size, **row)
    result = ExperimentResult(
        experiment_id="A1",
        title="Goodput: AAL5-class vs AAL3/4 data path (STS-3c)",
        series=series,
    )
    if 9180 in sizes:
        mtu = sizes.index(9180)
        aal5 = series.column("aal5_mbps")[mtu]
        aal34 = series.column("aal34_mbps")[mtu]
        result.metrics["efficiency_ratio_at_mtu"] = (
            aal34 / aal5 if aal5 else 0.0
        )
    result.notes.append(
        "the 4-bytes-per-cell SAR tax costs AAL3/4 ~8% of goodput at "
        "saturation -- the quantitative case for the AAL5 lineage"
    )
    return result


def claims_a1(result: ExperimentResult) -> Dict[str, bool]:
    """A1's verdicts: AAL3/4 pays its SAR fields at every size."""
    aal5 = result.series.column("aal5_mbps")
    aal34 = result.series.column("aal34_mbps")
    return {
        "AAL3/4 below AAL5 at every size": all(
            b < a for a, b in zip(aal5, aal34)
        ),
        "AAL3/4 / AAL5 at the MTU within 3% of 44/48": (
            abs(result.metrics["efficiency_ratio_at_mtu"] - 44 / 48)
            <= 0.03 * 44 / 48
        ),
    }


def run_a2(
    *,
    sizes: Sequence[int] = (512, 9180),
    crc_cycles: int = 130,
) -> ExperimentResult:
    """A2: the CRC hardware assist -- what software CRC would cost.

    Moving the CRC into engine software adds ~130 cycles per cell
    (table-driven over 48 bytes), multiplying the per-cell budget and
    collapsing the saturation throughput.  Pure closed-form: the cost
    models make this a one-line ablation.
    """
    headers = [
        "sdu_bytes",
        "hw CRC tx (Mb/s)",
        "sw CRC tx (Mb/s)",
        "hw CRC rx (Mb/s)",
        "sw CRC rx (Mb/s)",
    ]
    rows: List[List] = []
    base = aurora_oc3()
    software = replace(
        base,
        tx_costs=base.tx_costs.with_software_crc(crc_cycles),
        rx_costs=base.rx_costs.with_software_crc(crc_cycles),
    )
    for size in sizes:
        rows.append(
            [
                size,
                tx_throughput_model_mbps(base, size),
                tx_throughput_model_mbps(software, size),
                rx_throughput_model_mbps(base, size),
                rx_throughput_model_mbps(software, size),
            ]
        )
    result = ExperimentResult(
        experiment_id="A2",
        title=f"CRC in hardware vs engine software ({crc_cycles} cyc/cell)",
        headers=headers,
        rows=rows,
    )
    large = rows[-1]
    result.metrics["tx_slowdown"] = large[1] / large[2]
    result.metrics["rx_slowdown"] = large[3] / large[4]
    result.notes.append(
        "software CRC grows the per-cell budget ~9x (16 -> 146 cycles), "
        "halving even STS-3c throughput: per-byte work must live in "
        "hardware -- the paper's division of labour"
    )
    return result


def claims_a2(result: ExperimentResult) -> Dict[str, bool]:
    """A2's verdicts: software CRC at least halves throughput."""
    rows = result.rows
    return {
        "software CRC halves tx at every size": all(
            sw_tx < hw_tx / 2 for _size, hw_tx, sw_tx, _hw, _sw in rows
        ),
        "software CRC halves rx at every size": all(
            sw_rx < hw_rx / 2 for _size, _hw, _sw, hw_rx, sw_rx in rows
        ),
        "tx slowdown > 2": result.metrics["tx_slowdown"] > 2.0,
        "rx slowdown > 2": result.metrics["rx_slowdown"] > 2.0,
    }


def run_a3(
    *,
    windows_us: Sequence[float] = (0, 50, 200, 500),
    sdu_size: int = 1500,
    pdus: int = 60,
) -> ExperimentResult:
    """A3: interrupt coalescing -- host cycles vs added latency.

    Merging completion interrupts amortises the entry/exit cycles but
    delays delivery by up to the coalescing window: the classic
    throughput/latency trade, measured on the real pipeline.
    """
    headers = [
        "window (us)",
        "interrupts",
        "host cyc/PDU",
        "mean latency (us)",
    ]
    rows: List[List] = []
    for window_us in windows_us:
        config = replace(
            aurora_oc3(),
            interrupt=InterruptSpec(coalesce_window=window_us * 1e-6),
        )
        sim = Simulator()
        scenario = build_point_to_point(sim, config)
        latencies: List[float] = []
        inner = scenario.received

        def on_pdu(completion, latencies=latencies):
            # Time to the *user callback*: the quantity coalescing
            # defers (delivered_at only marks the DMA landing).
            inner.append(completion)
            if completion.posted_at is not None:
                latencies.append(sim.now - completion.posted_at)

        scenario.receiver.on_pdu = on_pdu
        # Light open-loop load: latency then reflects the unloaded path
        # plus the coalescing delay, not queueing noise.
        PoissonSource(
            sim, scenario.sender, scenario.vc, sdu_size, pdus_per_second=400.0
        ).start()
        sim.run(until=pdus / 400.0)
        delivered = len(latencies)
        rows.append(
            [
                window_us,
                scenario.receiver.interrupts.delivered.count,
                scenario.receiver.cpu.total_cycles / delivered
                if delivered
                else float("nan"),
                sum(latencies) / delivered * 1e6 if delivered else float("nan"),
            ]
        )
    result = ExperimentResult(
        experiment_id="A3",
        title=f"Interrupt coalescing ({sdu_size}-byte PDUs, STS-3c)",
        headers=headers,
        rows=rows,
    )
    result.metrics["cycles_saved_ratio"] = (
        rows[0][2] / rows[-1][2] if rows[-1][2] else float("nan")
    )
    result.metrics["latency_cost_us"] = rows[-1][3] - rows[0][3]
    result.notes.append(
        "coalescing trades completion latency for host cycles; with "
        "per-PDU interrupts already cheap, the win is modest -- offload "
        "itself was the big lever"
    )
    return result


def claims_a3(result: ExperimentResult) -> Dict[str, bool]:
    """A3's verdicts: coalescing buys few cycles for real latency."""
    latencies = [row[3] for row in result.rows]
    cycles = [row[2] for row in result.rows]
    return {
        "widest window adds > 100 us latency": latencies[-1] > latencies[0] + 100,
        "host cycles do not grow with the window": cycles[-1] <= cycles[0],
        "cycles saved < 1.5x": result.metrics["cycles_saved_ratio"] < 1.5,
    }


def run_a4(
    *,
    burst_words: Sequence[int] = (8, 16, 32, 64, 128, 256),
    sdu_size: int = 9180,
) -> ExperimentResult:
    """A4: host-bus burst length -- DMA efficiency vs bus hold time.

    Short bursts re-arbitrate constantly (setup cycles dominate); long
    bursts approach the bus's data-phase rate but hold it longer.  The
    effective bandwidth feeds straight into the large-PDU throughput
    ceiling via the staging-DMA term, on the OC-12 preset.
    """
    series = Series(name="bus burst sweep", x_label="burst_words")
    base = aurora_oc12()
    for words in burst_words:
        bus = replace(base.bus, max_burst_words=words)
        config = replace(base, bus=bus)
        series.add_point(
            words,
            effective_bus_mbps=bus.effective_bandwidth_bps(sdu_size) / 1e6,
            tx_model_mbps=tx_throughput_model_mbps(config, sdu_size),
        )
    result = ExperimentResult(
        experiment_id="A4",
        title=f"Bus burst length vs effective bandwidth ({sdu_size}-byte PDUs)",
        series=series,
    )
    eff = series.column("effective_bus_mbps")
    result.metrics["burst_gain"] = eff[-1] / eff[0]
    result.notes.append(
        "long DMA bursts amortise arbitration; the architecture's "
        "100 MB/s-class bus only delivers near peak with 64+ word bursts"
    )
    return result


def claims_a4(result: ExperimentResult) -> Dict[str, bool]:
    """A4's verdicts: long bursts are what make the bus fast enough."""
    eff = result.series.column("effective_bus_mbps")
    tx = result.series.column("tx_model_mbps")
    return {
        "effective bus bandwidth rises with burst length": eff == sorted(eff),
        "tx ceiling rises with burst length": tx == sorted(tx),
        "longest/shortest burst bandwidth > 1.5": (
            result.metrics["burst_gain"] > 1.5
        ),
        "tx ceiling gains > 20% over the sweep": tx[-1] > tx[0] * 1.2,
    }


# ---------------------------------------------------------------------------
# R1: graceful degradation -- goodput under cell loss, EPD/PPD on vs off
# ---------------------------------------------------------------------------

def _r1_point(params: Dict[str, Any], streams: RandomStreams) -> Dict[str, float]:
    """R1 kernel: goodput at one cell-loss rate, EPD/PPD on vs off.

    Both policies share the loss stream (common random numbers: the
    *same* cells vanish under either policy, so the comparison isolates
    the policy).  The stream is seeded by the explicit ``seed``
    parameter -- part of the point's content hash -- so the draw
    sequence is a function of the point, never of the worker that
    happens to execute it.
    """
    from repro.atm.errors import UniformLoss
    from repro.nic.rx import FrameDiscardPolicy

    n_vcs, window = params["n_vcs"], params["window"]
    base = lab_host(aurora_oc12())
    policies = (
        ("discard_off_mbps", None),
        ("epd_ppd_mbps", FrameDiscardPolicy()),
    )
    point = {}
    for label, policy in policies:
        cfg = replace(base, frame_discard=policy)
        sim = Simulator()
        nic = HostNetworkInterface(sim, cfg, name="rxhost")
        received: List = []
        nic.on_pdu = received.append
        for i in range(n_vcs):
            nic.open_vc(address=VcAddress(0, 100 + i))
        nic.start()
        link = PhysicalLink(
            sim,
            cfg.link,
            sink=nic.rx_input,
            loss_model=UniformLoss(
                params["loss_rate"],
                rng=RandomStreams(params["seed"]).stream("r1.loss"),
            ),
            name="lossy-wire",
        )
        source = InterleavedCellSource(
            sim,
            sink=link.send,
            link=cfg.link,
            n_vcs=n_vcs,
            sdu_size=params["sdu_size"],
        )
        source.start()
        sim.run(until=window)
        point[label] = windowed_goodput_mbps(received, window / 4, window)
    return point


def run_r1(
    *,
    seeds: Optional[Sequence[int]] = None,
    loss_rates: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05),
    n_vcs: int = 8,
    sdu_size: int = 8192,
    window: float = 0.01,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    log: Optional[RunLog] = None,
) -> ExperimentResult:
    """R1: goodput vs cell-loss rate with frame discard on vs off.

    The receive path is overloaded on purpose: an interleaved wire at
    OC-12c rate through a lossy link, against the default 25 MHz engine
    that cannot keep up (DESIGN.md F7).  Without frame discard every
    FIFO overflow holes a *random* frame, so nearly all frames die at
    the CRC check while their surviving cells still burn engine cycles.
    EPD/PPD converts the same cell budget into whole delivered frames:
    refused frames cost nothing, admitted frames arrive intact.

    R1 sweeps loss rates under one loss-model seed, so only the first
    entry of *seeds* is used (historically the ``seed=7`` parameter).
    Sweep points derive their config (OC-12c, host software zeroed).
    """
    seed = seeds[0] if seeds else 7
    spec = SweepSpec.grid(
        "R1",
        axes={"loss_rate": loss_rates},
        fixed={
            "n_vcs": n_vcs,
            "sdu_size": sdu_size,
            "window": window,
            "seed": seed,
        },
        x_axis="loss_rate",
    )
    sweep_run = run_sweep(spec, _r1_point, workers=workers, store=store, log=log)
    series = sweep_run.series(name="goodput under loss", x_label="loss_rate")
    series.x_label = "cell_loss_rate"
    base = lab_host(aurora_oc12())
    result = ExperimentResult(
        experiment_id="R1",
        title=f"Goodput under cell loss, EPD/PPD vs none ({base.link.name})",
        series=series,
    )
    off_col = series.column("discard_off_mbps")
    on_col = series.column("epd_ppd_mbps")
    for p, off, on in zip(series.x, off_col, on_col):
        result.metrics[f"epd_gain_mbps_at_{p:g}"] = on - off
    result.notes.append(
        "frame discard turns random cell holes into whole-frame drops: "
        "the engine spends its limited cycles only on frames that can "
        "still be delivered intact"
    )
    return result


def claims_r1(result: ExperimentResult) -> Dict[str, bool]:
    """R1's verdicts: frame discard holds goodput at every loss rate."""
    series = result.series
    off = series.column("discard_off_mbps")
    on = series.column("epd_ppd_mbps")
    one_pct = series.x.index(0.01)
    return {
        "EPD/PPD never below discard-off": all(
            a >= b - 1e-9 for a, b in zip(on, off)
        ),
        "1% loss: EPD/PPD gains > 10 Mb/s": on[one_pct] > off[one_pct] + 10.0,
        "no loss: EPD/PPD > 100 Mb/s": on[0] > 100.0,
        "EPD/PPD goodput never rises with loss": all(
            a >= b - 1e-9 for a, b in zip(on, on[1:])
        ),
    }


# ---------------------------------------------------------------------------
# O1: observability cross-check -- measured cycle budgets vs configured
# ---------------------------------------------------------------------------

def run_o1(
    *,
    duration: Optional[float] = None,
) -> ExperimentResult:
    """O1: the profiler's measured T1/T2 budgets vs the configured ones.

    T1/T2 print what the cost models are *configured* to charge; O1
    re-derives the same per-position budgets from a live simulation via
    :class:`repro.obs.CycleProfiler` (on both engines of F2's
    greedy-transmit scenario: 9,180-byte PDUs over a clean OC-3 pair
    with host software zeroed, observed for 30 PDUs' worth of cell
    slots unless *duration* says otherwise) and checks they agree.  A
    nonzero deviation would mean the pipeline charged cycles the budget
    tables do not show -- exactly the drift the observability layer
    exists to catch.
    """
    from repro.obs import observe

    sdu_size = 9180
    scenario_config = lab_host(aurora_oc3())
    if duration is None:
        duration = 30 * (sdu_size / 48 + 2) * scenario_config.link.cell_time
    with observe() as observation:
        sim = Simulator()
        scenario = build_point_to_point(sim, scenario_config)
        GreedySource(sim, scenario.sender, scenario.vc, sdu_size).start()
        sim.run(until=duration)
    (view,) = observation.views
    config = aurora_oc3()
    headers = [
        "engine",
        "cell position",
        "cells",
        "configured (cyc)",
        "measured (cyc)",
        "deviation (cyc)",
    ]
    rows: List[List] = []
    worst = 0.0
    for engine, configured_cycles in (
        ("tx", lambda p: config.tx_costs.cell_cycles(p)),
        ("rx", lambda p: config.rx_costs.cell_cycles(p, cam_fitted=True)),
    ):
        for position in CellPosition:
            measured = view.profiler.cycles_per_cell(engine, position)
            if measured is None:
                continue
            configured = configured_cycles(position)
            deviation = measured - configured
            worst = max(worst, abs(deviation))
            rows.append(
                [
                    engine,
                    position.value,
                    view.profiler.cells_at(engine, position),
                    configured,
                    measured,
                    deviation,
                ]
            )
    result = ExperimentResult(
        experiment_id="O1",
        title="Measured vs configured engine cycle budgets (live run)",
        headers=headers,
        rows=rows,
    )
    tx_middle = view.profiler.cycles_per_cell("tx", CellPosition.MIDDLE)
    rx_middle = view.profiler.cycles_per_cell("rx", CellPosition.MIDDLE)
    result.metrics["tx_middle_cycles"] = tx_middle or float("nan")
    result.metrics["rx_middle_cycles"] = rx_middle or float("nan")
    result.metrics["max_deviation_cycles"] = worst
    result.metrics["events_traced"] = float(len(view.recorder))
    result.notes.append(
        "middle-cell budgets (16 tx / 22 rx with the CAM) measured "
        "from executed cells, not read from the configuration"
    )
    return result


def claims_o1(result: ExperimentResult) -> Dict[str, bool]:
    """O1's verdicts: executed cells cost what T1/T2 say they cost."""
    m = result.metrics
    return {
        "tx middle cell measures 16 cycles": m["tx_middle_cycles"] == 16,
        "rx middle cell measures 22 cycles": m["rx_middle_cycles"] == 22,
        "measured budgets deviate by 0 cycles": m["max_deviation_cycles"] == 0,
    }


# ---------------------------------------------------------------------------
# the experiment table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One experiment: how to run it, its bench parameters, its claims.

    Calling an entry runs it, forwarding the runner's ``workers`` /
    ``store`` / ``log`` only when the run function is sweep-shaped.
    """

    run: Callable[..., ExperimentResult]
    #: Reduced parameters ``python -m repro bench`` runs it with.
    bench: Mapping[str, Any]
    #: The paper's verdicts, by name, over a result run at :attr:`bench`.
    claims: Callable[[ExperimentResult], Dict[str, bool]]

    @property
    def description(self) -> str:
        """The run function's docstring headline."""
        return (self.run.__doc__ or "").strip().splitlines()[0]

    @property
    def sweep(self) -> bool:
        """True when the run function takes the sweep runner's knobs."""
        return "workers" in inspect.signature(self.run).parameters

    def __call__(
        self,
        workers: int = 0,
        store: Optional[ResultStore] = None,
        log: Optional[RunLog] = None,
        **kwargs: Any,
    ) -> ExperimentResult:
        if self.sweep:
            return self.run(workers=workers, store=store, log=log, **kwargs)
        return self.run(**kwargs)


# R2 lives with the recovery plane it measures; C1 with the
# traffic-management plane; S1 with the massive-multiplexing scale
# plane.  All import ExperimentResult lazily, so these imports cannot
# cycle.
from repro.resilience.experiment import claims_r2, run_r2  # noqa: E402
from repro.scale.experiment import claims_s1, run_s1  # noqa: E402
from repro.tm.experiment import claims_c1, run_c1  # noqa: E402

_BENCH_SIZES = [40, 128, 512, 2048, 9180, 32768]

#: Every experiment, keyed by id, in presentation order.
EXPERIMENTS: Dict[str, Experiment] = {
    "T1": Experiment(run_t1, {}, claims_t1),
    "T2": Experiment(run_t2, {}, claims_t2),
    "F2": Experiment(run_f2, {"sizes": _BENCH_SIZES, "window": 0.02}, claims_f2),
    "F3": Experiment(run_f3, {"sizes": _BENCH_SIZES, "window": 0.02}, claims_f3),
    "F4": Experiment(run_f4, {"sizes": [64, 1024, 9180, 65535]}, claims_f4),
    "T3": Experiment(run_t3, {"sizes": [64, 1500, 9180], "pdus": 20}, claims_t3),
    "F5": Experiment(
        run_f5, {"fifo_depths": [8, 16, 32, 64, 128], "window": 0.03}, claims_f5
    ),
    "T4": Experiment(run_t4, {"window": 0.02}, claims_t4),
    # 128 VCs: below ~16 the lookup cost hides behind the link, and
    # both arms retain the same goodput.
    "F6": Experiment(
        run_f6, {"vc_counts": [1, 4, 16, 128], "window": 0.01}, claims_f6
    ),
    "T5": Experiment(run_t5, {"window": 0.03}, claims_t5),
    "F7": Experiment(
        run_f7, {"clocks_mhz": [10, 20, 25, 33, 50], "window": 0.01}, claims_f7
    ),
    "F8": Experiment(
        run_f8, {"sizes": [64, 1024, 9180, 32768], "window": 0.02}, claims_f8
    ),
    "A1": Experiment(run_a1, {"sizes": [512, 9180], "window": 0.02}, claims_a1),
    "A2": Experiment(run_a2, {}, claims_a2),
    "A3": Experiment(run_a3, {"windows_us": [0, 200, 500], "pdus": 40}, claims_a3),
    "A4": Experiment(run_a4, {"burst_words": [8, 32, 128]}, claims_a4),
    "R1": Experiment(
        run_r1, {"loss_rates": [0.0, 0.01, 0.02], "window": 0.005}, claims_r1
    ),
    "R2": Experiment(run_r2, {"seeds": [1, 2]}, claims_r2),
    "O1": Experiment(run_o1, {"duration": 3e-3}, claims_o1),
    "C1": Experiment(
        run_c1, {"seeds": [1, 2], "duration": 0.06, "warmup": 0.02}, claims_c1
    ),
    # S1 cannot be shrunk much below its defaults: the >= 2048
    # concurrency bar needs the full Poisson steady state.
    "S1": Experiment(run_s1, {"seeds": [1, 2]}, claims_s1),
}


def get(experiment_id: str) -> Experiment:
    """The experiment with this (case-insensitive) id."""
    try:
        return EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}"
        ) from None

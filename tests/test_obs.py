"""Observability layer: tracing, metrics registry, cycle profiler."""

import io
import json
import time

import pytest

from repro.nic.config import aurora_oc3
from repro.nic.costs import CellPosition
from repro.nic.fifo import CellFifo
from repro.obs import (
    DROP_REASONS,
    EVENT_TAXONOMY,
    CycleProfiler,
    MetricsRegistry,
    TraceEvent,
    TraceRecorder,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.runner import TRACEABLE, run_traced
from repro.results.experiments import lab_host, run_o1
from repro.results.tables import format_csv
from repro.sim.core import Simulator
from repro.workloads.generators import GreedySource
from repro.workloads.scenarios import build_point_to_point


def traced_point_to_point(sim, recorder, sdu_size=4096, total_pdus=3):
    scenario = build_point_to_point(sim, lab_host(aurora_oc3()))
    GreedySource(
        sim, scenario.sender, scenario.vc, sdu_size, total_pdus=total_pdus
    ).start()
    if recorder is not None:
        scenario.sender.attach_trace(recorder)
        scenario.receiver.attach_trace(recorder)
    return scenario


class TestTraceRecorder:
    def test_emit_records_identity_and_args(self, sim):
        recorder = TraceRecorder(sim)
        recorder.emit("tx.pdu.posted", actor="tx", pdu_id=7, size=4096)
        assert len(recorder) == 1
        event = recorder.events[0]
        assert event.name == "tx.pdu.posted"
        assert event.pdu_id == 7
        assert event.args["size"] == 4096
        assert event.ts == sim.now

    def test_unknown_event_name_rejected(self, sim):
        recorder = TraceRecorder(sim)
        with pytest.raises(ValueError):
            recorder.emit("no.such.event", actor="x")

    def test_disabled_recorder_records_nothing(self, sim):
        recorder = TraceRecorder(sim, enabled=False)
        recorder.emit("tx.pdu.posted", actor="tx", pdu_id=1)
        assert len(recorder) == 0

    def test_pipeline_untraced_by_default(self, sim):
        scenario = traced_point_to_point(sim, recorder=None)
        sim.run(until=2e-3)
        assert scenario.received
        for nic in (scenario.sender, scenario.receiver):
            assert nic.tx_engine.trace is None
            assert nic.rx_engine.trace is None

    def test_full_pipeline_emits_lifecycle(self, sim):
        recorder = TraceRecorder(sim)
        scenario = traced_point_to_point(sim, recorder)
        sim.run(until=2e-3)
        assert scenario.received
        names = {e.name for e in recorder.events}
        for expected in (
            "tx.pdu.posted",
            "tx.cell.sar",
            "fifo.enq",
            "fifo.deq",
            "link.cell.sent",
            "link.cell.delivered",
            "rx.cam.hit",
            "rx.cell.sar",
            "rx.pdu.done",
            "dma.start",
            "dma.done",
            "host.pdu.delivered",
            "engine.work",
        ):
            assert expected in names, expected
        # Every cell id seen on receive was minted on transmit.
        sar_tx = {e.cell_id for e in recorder.by_name("tx.cell.sar")}
        sar_rx = {e.cell_id for e in recorder.by_name("rx.cell.sar")}
        assert sar_rx and sar_rx <= sar_tx

    def test_for_cell_follows_one_cell_through(self, sim):
        recorder = TraceRecorder(sim)
        traced_point_to_point(sim, recorder)
        sim.run(until=2e-3)
        cell_id = recorder.by_name("tx.cell.sar")[0].cell_id
        journey = [e.name for e in recorder.for_cell(cell_id)]
        assert journey.index("tx.cell.sar") < journey.index("link.cell.sent")
        assert journey.index("link.cell.sent") < journey.index("rx.cell.sar")

    def test_taxonomy_covers_all_emitted_names(self, sim):
        recorder = TraceRecorder(sim)
        traced_point_to_point(sim, recorder)
        sim.run(until=2e-3)
        assert {e.name for e in recorder.events} <= set(EVENT_TAXONOMY)


class TestDropReasons:
    def test_fifo_overflow_drop_traced(self, sim):
        recorder = TraceRecorder(sim)
        fifo = CellFifo(sim, depth_cells=1, name="tiny")
        fifo.trace = recorder

        class FakeCell:
            meta = {}
            vpi, vci = 0, 1

        assert fifo.try_put(FakeCell()) is True
        assert fifo.try_put(FakeCell()) is False
        assert recorder.drop_reasons() == {"fifo_overflow": 1}

    def test_lossy_run_names_every_drop(self):
        run = run_traced("r1", duration=2e-3)
        drops = run.recorder.drop_reasons()
        assert drops, "a 2% lossy overload must drop something"
        assert set(drops) <= set(DROP_REASONS)
        assert "link_lost" in drops

    def test_every_drop_reason_has_a_ledger_bucket(self):
        # Each declared cause lands in the conservation auditor's books:
        # a ledger field named for it (directly or as <reason>_discarded)
        # or a reassembly verdict itemised under discarded_by.
        from dataclasses import fields

        from repro.aal.interface import ReassemblyFailure
        from repro.faults.audit import ConservationLedger

        buckets = {f.name for f in fields(ConservationLedger)}
        verdicts = {failure.value for failure in ReassemblyFailure}
        orphans = [
            reason
            for reason in DROP_REASONS
            if reason not in buckets
            and f"{reason}_discarded" not in buckets
            and reason not in verdicts
        ]
        assert orphans == []


class TestExporters:
    def test_jsonl_round_trip(self, sim):
        recorder = TraceRecorder(sim)
        traced_point_to_point(sim, recorder)
        sim.run(until=1e-3)
        buffer = io.StringIO()
        count = recorder.export_jsonl(buffer)
        assert count == len(recorder)
        parsed = read_jsonl(io.StringIO(buffer.getvalue()))
        assert parsed == recorder.events

    def test_jsonl_event_fields_survive(self):
        events = [
            TraceEvent(
                ts=1.5e-6,
                name="cell.drop",
                actor="rx",
                cell_id=3,
                pdu_id=2,
                vc="0.100",
                args={"reason": "hec"},
            )
        ]
        buffer = io.StringIO()
        write_jsonl(events, buffer)
        assert read_jsonl(io.StringIO(buffer.getvalue())) == events

    def test_chrome_trace_structure(self, sim):
        recorder = TraceRecorder(sim)
        traced_point_to_point(sim, recorder)
        sim.run(until=1e-3)
        buffer = io.StringIO()
        write_chrome_trace(recorder.events, buffer)
        document = json.loads(buffer.getvalue())
        assert isinstance(document["traceEvents"], list)
        phases = {e["ph"] for e in document["traceEvents"]}
        assert "M" in phases  # thread names
        assert "i" in phases  # instants
        assert "X" in phases  # engine.work slices
        for entry in document["traceEvents"]:
            assert entry["pid"] == 1
            if entry["ph"] != "M":  # metadata records carry no timestamp
                assert isinstance(entry["ts"], (int, float))

    def test_chrome_counter_tracks_fifo_occupancy(self, sim):
        recorder = TraceRecorder(sim)
        traced_point_to_point(sim, recorder)
        sim.run(until=1e-3)
        buffer = io.StringIO()
        write_chrome_trace(recorder.events, buffer)
        counters = [
            e
            for e in json.loads(buffer.getvalue())["traceEvents"]
            if e["ph"] == "C"
        ]
        assert counters
        assert all("occupancy" in c["name"] for c in counters)


class TestTracingOverhead:
    def test_disabled_tracing_adds_no_events_and_little_time(self):
        def one_run(recorder):
            sim = Simulator()
            scenario = traced_point_to_point(
                sim, recorder, sdu_size=9180, total_pdus=20
            )
            sim.run(until=2e-2)
            return scenario

        # Warm both paths, then time them.
        one_run(None)
        started = time.perf_counter()
        baseline = one_run(None)
        base_elapsed = time.perf_counter() - started

        disabled = TraceRecorder(Simulator(), enabled=False)
        started = time.perf_counter()
        traced = one_run(disabled)
        disabled_elapsed = time.perf_counter() - started

        assert len(disabled) == 0
        assert len(traced.received) == len(baseline.received)
        # Measured locally at <5%; the bound is loose for noisy CI boxes.
        assert disabled_elapsed < base_elapsed * 1.5 + 0.05


class TestMetricsRegistry:
    def test_register_read_snapshot(self, sim):
        registry = MetricsRegistry(sim)
        registry.counter("a.count", lambda: 3, unit="events")
        registry.gauge("a.level", lambda: 0.5)
        assert "a.count" in registry
        assert len(registry) == 2
        assert registry.read("a.count") == 3
        assert registry.snapshot() == {"a.count": 3, "a.level": 0.5}

    def test_duplicate_and_bad_kind_rejected(self, sim):
        registry = MetricsRegistry(sim)
        registry.gauge("x", lambda: 1)
        with pytest.raises(ValueError):
            registry.gauge("x", lambda: 2)
        with pytest.raises(ValueError):
            registry.register("y", lambda: 1, kind="not-a-kind")

    def test_sampling_builds_time_series(self, sim):
        registry = MetricsRegistry(sim)
        ticks = []
        registry.gauge("ticks", lambda: float(len(ticks)))
        registry.start_sampling(1e-3)

        def pump():
            while True:
                yield sim.timeout(4e-4)
                ticks.append(sim.now)

        sim.process(pump())
        sim.run(until=1e-2)
        series = registry.series["ticks"]
        assert registry.samples_taken >= 9
        assert series.values[0] == 0.0
        assert series.values[-1] > series.values[0]

    def test_csv_and_json_exports_parse(self, sim):
        registry = MetricsRegistry(sim)
        registry.gauge("g", lambda: sim.now)
        registry.start_sampling(1e-3)
        sim.run(until=5e-3)
        doc = json.loads(registry.to_json())
        assert doc["metrics"][0]["name"] == "g"
        assert doc["series"]["g"]["times"]
        lines = registry.to_csv().strip().splitlines()
        assert lines[0] == "t,g"
        assert len(lines) == registry.samples_taken + 1

    def test_histogram_is_snapshot_only(self, sim):
        registry = MetricsRegistry(sim)
        registry.histogram("h", lambda: {"p50": 1.0})
        registry.sample()
        assert "h" not in registry.series
        assert registry.snapshot()["h"] == {"p50": 1.0}

    def test_instrument_dispatches_on_type(self, sim):
        from repro.atm.link import PhysicalLink
        from repro.obs import instrument

        registry = MetricsRegistry(sim)
        link = PhysicalLink(sim, aurora_oc3().link, name="wire")
        instrument(registry, link)
        assert "link.cells_sent" in registry

    def test_instrument_unknown_type_names_known_ones(self, sim):
        from repro.obs import instrument

        with pytest.raises(TypeError, match="PhysicalLink"):
            instrument(MetricsRegistry(sim), object())

    def test_every_instrumenter_is_dispatched(self):
        # instrument() is the only way in: an _instrument_* missing from
        # the table could never run.
        from repro.obs import metrics

        defined = {
            name
            for name, value in vars(metrics).items()
            if name.startswith("_instrument_") and callable(value)
        }
        dispatched = {
            target.__name__ for target in metrics.INSTRUMENT_DISPATCH.values()
        }
        assert defined == dispatched

    def test_r1_campaign_metrics_account_for_loss(self):
        run = run_traced("r1", duration=2e-3)
        snap = run.registry.snapshot()
        assert snap["link.cells_lost"] > 0
        in_flight = (
            snap["link.cells_sent"]
            - snap["link.cells_delivered"]
            - snap["link.cells_lost"]
        )
        assert 0 <= in_flight <= 2  # mid-run snapshot: <= one cell serializing
        # The auditor's ledger is registered and balances.
        assert snap["audit.unaccounted"] == 0
        assert isinstance(snap["audit.breakdown"], dict)
        # Sampling tracked the loss counter over time.
        lost = run.registry.series["link.cells_lost"]
        assert lost.values[-1] == snap["link.cells_lost"]


class TestCycleProfiler:
    def test_measured_budgets_match_paper(self):
        run = run_traced("f2", duration=3e-3)
        profiler = run.profiler
        assert profiler.cycles_per_cell("tx", CellPosition.MIDDLE) == 16
        assert profiler.cycles_per_cell("rx", CellPosition.MIDDLE) == 22
        assert profiler.cells_seen("tx") > 0
        assert profiler.pdus_seen("tx") > 0

    def test_phase_attribution_sums_to_total(self):
        run = run_traced("f2", duration=3e-3)
        for engine in ("tx", "rx"):
            phases = run.profiler.phase_cycles(engine)
            assert sum(phases.values()) == pytest.approx(
                run.profiler.total_cycles(engine)
            )
            assert phases.get("copy", 0) > phases.get("per-pdu", 0)

    def test_render_contains_measured_tables(self):
        run = run_traced("f2", duration=3e-3)
        text = run.profiler.render()
        assert "T1' measured segmentation budget" in text
        assert "T2' measured reassembly budget" in text
        assert "Cycle attribution by phase" in text

    def test_manual_recording_and_ledger(self):
        profiler = CycleProfiler()
        profiler.record_cell(
            "tx", CellPosition.MIDDLE, {"cell_build": 8, "fifo_push": 3}
        )
        profiler.record_pdu("tx", {"dma_setup": 20})
        assert profiler.cycles_per_cell("tx", CellPosition.MIDDLE) == 11
        assert profiler.op_ledger("tx")["dma_setup"] == (1, 20.0)
        assert profiler.cycles_per_cell("rx", CellPosition.MIDDLE) is None


class TestChargeSitesReconcile:
    """Every engine charge books exactly the ops the profiler records.

    The run drives all seven charge sites -- TX prologue, DMA setup,
    cell and completion; RX OAM, unknown-VC and cell -- with single-
    and multi-cell PDUs, with and without the CAM.
    """

    TX_TAGS = {"tx-pdu-prologue", "tx-dma-setup", "tx-cell", "tx-pdu-completion"}
    RX_TAGS = {"rx-oam", "rx-unknown-vc", "rx-cell"}

    @pytest.mark.parametrize("cam", [True, False], ids=["cam", "no-cam"])
    def test_profiler_cycles_equal_engine_clock_cycles(self, cam):
        from repro.atm import VcAddress
        from repro.nic import HostNetworkInterface, connect
        from repro.obs import profile_interface

        config = aurora_oc3() if cam else aurora_oc3().without_cam()
        sim = Simulator()
        a = HostNetworkInterface(sim, config, name="a")
        b = HostNetworkInterface(sim, config, name="b")
        connect(sim, a, b)
        profiler = profile_interface(a)
        profile_interface(b, profiler)
        vc = a.open_vc()
        b.open_vc(address=vc.address)
        orphan = a.open_vc(address=VcAddress(0, 999))  # never opened at b
        a.post(vc.address, b"one cell")
        a.post(vc.address, bytes(500))
        a.post(orphan.address, b"nobody listens")
        a.oam_ping(vc.address)
        sim.run(until=0.05)

        assert self.TX_TAGS <= set(a.tx_clock.cycles_by_tag)
        assert self.RX_TAGS <= set(b.rx_clock.cycles_by_tag)
        lookup = "vci_lookup_cam" if cam else "vci_lookup_software"
        assert lookup in profiler.op_ledger("rx")
        for engine in ("tx", "rx"):
            clocks = [getattr(nic, f"{engine}_clock") for nic in (a, b)]
            assert profiler.reconcile(engine, clocks) == 0, engine


class TestRunnerAndExperiment:
    def test_every_traceable_scenario_runs(self):
        for name in TRACEABLE:
            run = run_traced(name, duration=1e-3)
            assert len(run.recorder) > 0, name
            assert run.registry.samples_taken > 0, name
            # Cut off mid-flight, the profiler still holds exactly the
            # cycles the profiled engines' clocks booked.
            assert run.nics, name
            for engine in ("tx", "rx"):
                clocks = [getattr(nic, f"{engine}_clock") for nic in run.nics]
                assert run.profiler.reconcile(engine, clocks) == 0, (
                    name, engine
                )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_traced("zz")

    def test_trace_cli_writes_perfetto_and_metrics(self, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.csv"
        assert (
            main(
                [
                    "trace",
                    "f2",
                    "--duration",
                    "0.002",
                    "--out",
                    str(trace_path),
                    "--metrics",
                    str(metrics_path),
                ]
            )
            == 0
        )
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        assert metrics_path.read_text().startswith("t,")

    def test_o1_reproduces_configured_budgets(self):
        result = run_o1(duration=3e-3)
        assert result.metrics["tx_middle_cycles"] == 16
        assert result.metrics["rx_middle_cycles"] == 22
        assert result.metrics["max_deviation_cycles"] == 0
        assert result.rows


class TestFormatCsv:
    def test_values_and_quoting(self):
        text = format_csv(["name", "v"], [["plain", 1], ['q"t,e', 2.5]])
        lines = text.splitlines()
        assert lines[0] == "name,v"
        assert lines[1] == "plain,1"
        assert lines[2] == '"q""t,e",2.5'

    def test_large_floats_stay_machine_readable(self):
        assert "1,000" not in format_csv(["x"], [[12345.0]])

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            format_csv(["a", "b"], [[1]])

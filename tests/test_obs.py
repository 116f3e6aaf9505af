"""Observability layer: tracing, metrics registry, cycle profiler."""

import io
import json

import pytest

from repro.nic.config import aurora_oc3
from repro.nic.costs import I960_25MHZ, CellPosition, Charge
from repro.nic.engine import EngineClock
from repro.nic.fifo import CellFifo
from repro.obs import (
    DROP_REASONS,
    EVENT_CAP,
    EVENT_TAXONOMY,
    CycleProfiler,
    MetricsRegistry,
    TraceEvent,
    TraceRecorder,
    TraceWriter,
    observe,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.results.experiments import get, lab_host, run_o1
from repro.results.tables import format_csv
from repro.sim.core import Simulator
from repro.workloads.generators import GreedySource
from repro.workloads.scenarios import build_point_to_point


def observed_point_to_point(sdu_size=4096, total_pdus=3, until=2e-3):
    """A clean host-to-host exchange built and run inside ``observe()``.

    ``total_pdus=None`` keeps the sender greedy (F2's and O1's shape).
    """
    with observe() as observation:
        sim = Simulator()
        scenario = build_point_to_point(sim, lab_host(aurora_oc3()))
        GreedySource(
            sim, scenario.sender, scenario.vc, sdu_size, total_pdus=total_pdus
        ).start()
        sim.run(until=until)
    (view,) = observation.views
    return view, scenario


@pytest.fixture(scope="module")
def r1_views():
    """R1's lossy EPD/PPD overload, shrunk: one 2% point, 2 ms."""
    with observe() as observation:
        get("R1")(loss_rates=[0.02], window=2e-3)
    return observation.views


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

    @pytest.mark.parametrize("name", ["cell.drop", "pdu.drop"])
    def test_undeclared_drop_reason_rejected(self, sim, name):
        recorder = TraceRecorder(sim)
        with pytest.raises(ValueError, match="no-such-reason"):
            recorder.emit(name, actor="x", reason="no-such-reason")
        with pytest.raises(ValueError):
            recorder.emit(name, actor="x")  # a drop must name its cause
        assert len(recorder) == 0

    def test_every_declared_drop_reason_accepted(self, sim):
        recorder = TraceRecorder(sim)
        for reason in DROP_REASONS:
            recorder.emit("cell.drop", actor="x", reason=reason)
            recorder.emit("pdu.drop", actor="x", reason=reason)
        assert recorder.drop_reasons() == {reason: 2 for reason in DROP_REASONS}

    def test_cap_keeps_first_events_and_counts_the_rest(self, sim):
        assert EVENT_CAP == 500_000
        recorder = TraceRecorder(sim)
        recorder.emit("tx.pdu.posted", actor="tx", pdu_id=0)
        # Stand-ins for the events between the first and the cap.
        recorder.events.extend(recorder.events * (EVENT_CAP - 3))
        for i in range(1, 6):
            recorder.emit("tx.pdu.posted", actor="tx", pdu_id=i)
        assert len(recorder) == EVENT_CAP
        assert [e.pdu_id for e in recorder.events[-3:]] == [0, 1, 2]
        assert recorder.overflow == 3
        *kept, marker = recorder.exported()  # what every export writes
        assert len(kept) == EVENT_CAP
        assert (marker.name, marker.args) == ("trace.overflow", {"events": 3})
        with pytest.raises(ValueError):  # still validated past the cap
            recorder.emit("no.such.event", actor="x")

    def test_pipeline_untraced_by_default(self, sim):
        scenario = build_point_to_point(sim, lab_host(aurora_oc3()))
        GreedySource(sim, scenario.sender, scenario.vc, 4096, total_pdus=3).start()
        sim.run(until=2e-3)
        assert scenario.received
        assert sim.trace is None
        for nic in (scenario.sender, scenario.receiver):
            assert nic.tx_engine.trace is None
            assert nic.rx_engine.trace is None

    def test_full_pipeline_emits_lifecycle(self):
        view, scenario = observed_point_to_point()
        recorder = view.recorder
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

    def test_for_cell_follows_one_cell_through(self):
        recorder = observed_point_to_point()[0].recorder
        cell_id = recorder.by_name("tx.cell.sar")[0].cell_id
        journey = [e.name for e in recorder.for_cell(cell_id)]
        assert journey.index("tx.cell.sar") < journey.index("link.cell.sent")
        assert journey.index("link.cell.sent") < journey.index("rx.cell.sar")

    def test_taxonomy_covers_all_emitted_names(self):
        recorder = observed_point_to_point()[0].recorder
        assert {e.name for e in recorder.events} <= set(EVENT_TAXONOMY)


class TestDropReasons:
    def test_fifo_overflow_drop_traced(self):
        with observe() as observation:
            fifo = CellFifo(Simulator(), depth_cells=1, name="tiny")
        recorder = observation.views[0].recorder

        class FakeCell:
            meta = {}
            vpi, vci = 0, 1

        assert fifo.try_put(FakeCell()) is True
        assert fifo.try_put(FakeCell()) is False
        assert recorder.drop_reasons() == {"fifo_overflow": 1}

    def test_lossy_run_names_every_drop(self, r1_views):
        for view in r1_views:
            drops = view.recorder.drop_reasons()
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
    def test_jsonl_round_trip(self):
        recorder = observed_point_to_point(until=1e-3)[0].recorder
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

    def test_chrome_trace_structure(self):
        recorder = observed_point_to_point(until=1e-3)[0].recorder
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

    def test_chrome_counter_tracks_fifo_occupancy(self):
        recorder = observed_point_to_point(until=1e-3)[0].recorder
        buffer = io.StringIO()
        write_chrome_trace(recorder.events, buffer)
        counters = [
            e
            for e in json.loads(buffer.getvalue())["traceEvents"]
            if e["ph"] == "C"
        ]
        assert counters
        assert all("occupancy" in c["name"] for c in counters)


    def test_writer_gives_each_simulator_its_own_track(self):
        views = [observed_point_to_point(until=5e-4)[0] for _ in range(2)]
        chrome, lines = io.StringIO(), io.StringIO()
        for fmt, buffer in ((True, chrome), (False, lines)):
            with TraceWriter(buffer, chrome=fmt) as writer:
                for n, view in enumerate(views, 1):
                    writer.add(f"F2 #{n}", view.recorder.events)
        entries = json.loads(chrome.getvalue())["traceEvents"]
        processes = {
            e["pid"]: e["args"]["name"]
            for e in entries
            if e["name"] == "process_name"
        }
        assert processes == {1: "F2 #1", 2: "F2 #2"}
        tracks = [json.loads(line)["sim"] for line in lines.getvalue().splitlines()]
        assert tracks.count("F2 #1") == len(views[0].recorder)
        assert tracks.count("F2 #2") == len(views[1].recorder)


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

    def test_r1_campaign_metrics_account_for_loss(self, r1_views):
        for view in r1_views:
            snap = view.registry.snapshot()
            assert snap["lossy-wire.cells_lost"] > 0
            in_flight = (
                snap["lossy-wire.cells_sent"]
                - snap["lossy-wire.cells_delivered"]
                - snap["lossy-wire.cells_lost"]
            )
            assert 0 <= in_flight <= 2  # cut mid-run: <= one cell serializing
            # The closed ledger is registered and balances.
            assert snap["audit.unaccounted"] == 0
            assert isinstance(snap["audit.breakdown"], dict)
            # Sampling over the first run window tracked the loss counter.
            lost = view.registry.series["lossy-wire.cells_lost"]
            assert len(lost.values) > 40
            assert lost.values[-1] == snap["lossy-wire.cells_lost"]


class TestCycleProfiler:
    def test_measured_budgets_match_paper(self):
        profiler = observed_point_to_point(9180, None, until=3e-3)[0].profiler
        assert profiler.cycles_per_cell("tx", CellPosition.MIDDLE) == 16
        assert profiler.cycles_per_cell("rx", CellPosition.MIDDLE) == 22
        assert profiler.cells_seen("tx") > 0
        assert profiler.pdus_seen("tx") > 0

    def test_phase_attribution_sums_to_total(self):
        profiler = observed_point_to_point(9180, None, until=3e-3)[0].profiler
        for engine in ("tx", "rx"):
            phases = profiler.phase_cycles(engine)
            assert sum(phases.values()) == pytest.approx(
                profiler.total_cycles(engine)
            )
            assert phases.get("copy", 0) > phases.get("per-pdu", 0)

    def test_render_contains_measured_tables(self):
        view = observed_point_to_point(9180, None, until=3e-3)[0]
        text = view.profiler.render()
        assert "T1' measured segmentation budget" in text
        assert "T2' measured reassembly budget" in text
        assert "Cycle attribution by phase" in text

    def test_profiler_reads_a_clock_ledger(self, sim):
        clock = EngineClock(sim, I960_25MHZ)
        cell = Charge(
            {"cell_build": 8, "fifo_push": 3}, "tx-cell", "tx", CellPosition.MIDDLE
        )
        prologue = Charge({"dma_setup": 20}, "tx-pdu-prologue", "tx")
        for charge in (prologue, cell, cell):
            clock.work(charge, lambda: None)
        profiler = CycleProfiler([clock, clock])  # a clock listed twice counts once
        assert profiler.cycles_per_cell("tx", CellPosition.MIDDLE) == 11
        assert profiler.cells_seen("tx") == 2
        assert profiler.pdus_seen("tx") == 1
        assert profiler.op_ledger("tx") == {
            "cell_build": (2, 16.0),
            "dma_setup": (1, 20.0),
            "fifo_push": (2, 6.0),
        }
        assert profiler.total_cycles("tx") == clock.total_cycles == 42
        assert profiler.cycles_per_cell("rx", CellPosition.MIDDLE) is None
        # A view, not a copy: it reads the ledger as it stands.
        clock.work(cell, lambda: None)
        assert profiler.cells_seen("tx") == 3

    def test_profiler_over_an_unobserved_interfaces_clocks(self, sim):
        scenario = build_point_to_point(sim, lab_host(aurora_oc3()))
        GreedySource(sim, scenario.sender, scenario.vc, 9180, total_pdus=2).start()
        sim.run(until=3e-3)
        profiler = CycleProfiler(
            [scenario.sender.tx_clock, scenario.receiver.rx_clock]
        )
        assert profiler.cycles_per_cell("tx", CellPosition.MIDDLE) == 16
        assert profiler.cycles_per_cell("rx", CellPosition.MIDDLE) == 22
        assert profiler.pdus_seen("tx") == 2
        text = profiler.render()
        assert "T1' measured segmentation budget" in text
        assert "T2' measured reassembly budget" in text
        assert "Cycle attribution by phase" in text


class TestChargeSitesInTheLedger:
    """Every engine charge lands in its clock's ledger, which the view's
    profiler reads.

    The run drives all seven charge sites -- TX prologue, DMA setup,
    cell and completion; RX OAM, unknown-VC and cell -- with single-
    and multi-cell PDUs, with and without the CAM.
    """

    TX_TAGS = {"tx-pdu-prologue", "tx-dma-setup", "tx-cell", "tx-pdu-completion"}
    RX_TAGS = {"rx-oam", "rx-unknown-vc", "rx-cell"}

    @staticmethod
    def exchange(config):
        """a sends to b, on a VC b knows and on one it does not, and
        pings b; returns the view and both interfaces."""
        from repro.atm import VcAddress
        from repro.nic import HostNetworkInterface, connect

        with observe(trace=False) as observation:
            sim = Simulator()
            a = HostNetworkInterface(sim, config, name="a")
            b = HostNetworkInterface(sim, config, name="b")
            connect(sim, a, b)
            vc = a.open_vc()
            b.open_vc(address=vc.address)
            orphan = a.open_vc(address=VcAddress(0, 999))  # never opened at b
            a.send(vc.address, b"one cell")
            a.send(vc.address, bytes(500))
            a.send(orphan.address, b"nobody listens")
            a.oam_ping(vc.address)
            sim.run(until=0.05)
        (view,) = observation.views
        return view, a, b

    @pytest.mark.parametrize("cam", [True, False], ids=["cam", "no-cam"])
    def test_every_charge_site_is_in_the_view(self, cam):
        config = aurora_oc3() if cam else aurora_oc3().without_cam()
        view, a, b = self.exchange(config)
        profiler = view.profiler

        assert self.TX_TAGS <= set(a.tx_clock.cycles_by_tag)
        assert self.RX_TAGS <= set(b.rx_clock.cycles_by_tag)
        booked = {
            charge.tag
            for clock in profiler.clocks
            for charge in clock.booked
        }
        assert booked == self.TX_TAGS | self.RX_TAGS
        lookup = "vci_lookup_cam" if cam else "vci_lookup_software"
        other = "vci_lookup_software" if cam else "vci_lookup_cam"
        assert lookup in profiler.op_ledger("rx")
        assert other not in profiler.op_ledger("rx")
        assert "oam_handling" in profiler.op_ledger("rx")
        assert profiler.pdus_seen("tx") == a.tx_engine.pdus_sent.count == 3
        for engine in ("tx", "rx"):
            clocks = [getattr(nic, f"{engine}_clock") for nic in (a, b)]
            assert profiler.total_cycles(engine) == sum(
                clock.total_cycles for clock in clocks
            )

    def test_aal34_glue_extra_is_one_op_of_each_cell(self):
        view, a, b = self.exchange(aurora_oc3().with_aal34())
        profiler = view.profiler
        assert profiler.cycles_per_cell("tx", CellPosition.MIDDLE) == 16 + 5
        assert profiler.cycles_per_cell("rx", CellPosition.MIDDLE) == 22 + 6
        for engine in ("tx", "rx"):
            events, cycles = profiler.op_ledger(engine)["sar_glue_extra"]
            assert events == profiler.cells_seen(engine) > 0
            assert cycles == events * (5 if engine == "tx" else 6)
            assert profiler.phase_cycles(engine)["copy"] >= cycles


#: Every experiment at a size tier-1 can afford, observed and not.
SHRUNK = {
    "T1": {},
    "T2": {},
    "F2": {"sizes": [64, 512], "window": 1e-3},
    "F3": {"sizes": [64, 512], "window": 1e-3},
    "F4": {"sizes": [64, 1024]},
    "T3": {"sizes": [64, 1500], "pdus": 10},
    "F5": {"fifo_depths": [8, 64], "window": 2e-3},
    "T4": {"window": 1e-3},
    "F6": {"vc_counts": [1, 4], "window": 1e-3},
    "T5": {"window": 2e-4, "sdu_size": 128},
    "F7": {"clocks_mhz": [25], "window": 1e-3, "sdu_size": 1500},
    "F8": {"sizes": [1024], "window": 1e-3},
    "A1": {"sizes": [512], "window": 1e-3},
    "A2": {},
    "A3": {"windows_us": [0, 200], "pdus": 8},
    "A4": {"burst_words": [8]},
    "R1": {"loss_rates": [0.02], "window": 1e-3},
    "R2": {"seeds": [1], "duration": 8e-3, "flap_start": 2e-3, "flap_down": 2e-3},
    "O1": {"duration": 1e-3},
    "C1": {"seeds": [1], "duration": 2e-3, "warmup": 1e-3},
    "S1": {
        "seeds": [1],
        "duration": 0.02,
        "arrival_rate": 1000.0,
        "holding_time": 0.01,
        "cam_entries": 8,
        "reassembly_quota": 64,
    },
}

#: Simulators the closed ledger cannot audit, and why.
NOT_AUDITED = {
    ("F3", "rxhost's receive FIFO is fed without a link"),
    ("F6", "rxhost's receive FIFO is fed without a link"),
    ("T3", "link-STS-3c delivers to sar-rx, outside the ledger"),
    ("T5", "tx-probe delivers to sink, outside the ledger"),
    ("T5", "rxhost's receive FIFO is fed without a link"),
    ("T5", "duplex-probe delivers to sink, outside the ledger"),
    ("T5", "link-STS-12c delivers to sar-rx, outside the ledger"),
    ("F7", "tx-probe delivers to sink, outside the ledger"),
    ("F7", "rxhost's receive FIFO is fed without a link"),
}


def _canonical(experiment_id, result):
    from repro.results.experiments import canonical_result_json

    document = json.loads(canonical_result_json(result))
    if experiment_id == "S1":
        # The metrics sampler's queued tick is one more heap entry.
        del document["metrics"]["max_peak_queue_occupancy"]
        del document["series"]["columns"]["peak_queue_occupancy"]
    return document


class TestRunnerAndExperiment:
    def test_shrunk_table_covers_every_experiment(self):
        from repro.results.experiments import EXPERIMENTS

        assert list(SHRUNK) == list(EXPERIMENTS)

    @pytest.mark.parametrize("experiment_id", list(SHRUNK))
    def test_every_experiment_is_observed(self, experiment_id):
        experiment = get(experiment_id)
        kwargs = SHRUNK[experiment_id]
        with observe() as observation:
            observed = experiment(**kwargs)
        views = observation.views
        if experiment_id in ("T1", "T2", "A2", "A4"):
            assert views == []
        else:
            assert views
        unaudited = set()
        for view in views:
            assert len(view.recorder) > 0
            reason = view.ledger.unclosed
            if reason is None:
                assert view.ledger.snapshot().is_conserved
            else:
                unaudited.add((experiment_id, reason))
        assert unaudited == {
            pair for pair in NOT_AUDITED if pair[0] == experiment_id
        }
        unobserved = experiment(**kwargs)
        assert _canonical(experiment_id, observed) == _canonical(
            experiment_id, unobserved
        )

    def test_unknown_scenario_rejected(self, capsys):
        from repro.cli import main

        assert main(["ZZ9", "--audit"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("knob", ["workers", "store"])
    def test_observe_refuses_pooled_or_stored_sweeps(self, knob, tmp_path):
        from repro.runner import ResultStore

        kwargs = (
            {"workers": 2}
            if knob == "workers"
            else {"store": ResultStore(root=str(tmp_path))}
        )
        with observe(), pytest.raises(RuntimeError, match="observe"):
            get("R1")(loss_rates=[0.0], window=1e-4, **kwargs)

    def test_observation_flags_refuse_workers(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["R1", "--audit", "--workers", "2"])
        assert exc.value.code == 2

    def test_trace_cli_writes_perfetto_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.csv"
        argv = ["O1", "--trace", str(trace_path), "--metrics", str(metrics_path)]
        assert main(argv + ["--profile", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "O1 #1: 11537 events traced" in out
        assert "T1' measured segmentation budget" in out
        assert "O1 #1: ledger balanced" in out
        entries = json.loads(trace_path.read_text())["traceEvents"]
        assert {"name": "process_name", "ph": "M", "pid": 1,
                "args": {"name": "O1 #1"}} in entries
        assert metrics_path.read_text().startswith("# O1 #1\nt,")

    def test_audit_cli_exits_1_on_a_residue(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.results import experiments

        def run_leaky():
            """A clean exchange whose wire claims a delivery nobody took."""
            sim = Simulator()
            scenario = build_point_to_point(sim, aurora_oc3())
            GreedySource(sim, scenario.sender, scenario.vc, 512, 2).start()
            sim.run(until=1e-3)
            scenario.link_ab.cells_delivered.increment()
            return experiments.ExperimentResult("ZZ", "leaky")

        monkeypatch.setitem(
            experiments.EXPERIMENTS,
            "ZZ",
            experiments.Experiment(run_leaky, {}, lambda result: {}),
        )
        assert main(["ZZ", "--audit"]) == 1
        assert "ZZ #1: ledger UNBALANCED: 1 of" in capsys.readouterr().out

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

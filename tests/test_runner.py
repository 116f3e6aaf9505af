"""repro.runner: specs, the store, the executor, and the bench gate.

The heart of the file is the acceptance property the subsystem was
built around: a sweep run with ``--workers 4`` and a cache-warm re-run
are *byte-identical* to a serial run -- same x order, same floats,
compared via ``float.hex`` so not even one ULP of drift hides.
"""

import json
import math
import shutil
from pathlib import Path

import pytest

import repro
from repro.faults.sweep import run_campaign_sweep, sweep_summary
from repro.results.experiments import canonical_result_json, run_f7, run_t1
from repro.runner import (
    Baseline,
    BaselineGate,
    Executor,
    Point,
    ResultStore,
    RunLog,
    SweepError,
    SweepSpec,
    content_hash,
    cost_model_fingerprint,
    kernel_name,
    run_sweep,
)
from repro.runner.store import store_fingerprint

# ---------------------------------------------------------------------------
# module-level kernels (picklable across the process-pool boundary)
# ---------------------------------------------------------------------------


def noisy_kernel(params, streams):
    """Depends on params and the hash-derived stream only."""
    rng = streams.stream("noise")
    return {"y": params["x"] * 10 + rng.random()}


def fragile_kernel(params, streams):
    """Deterministically explodes on one point of the sweep."""
    if params["x"] == 2:
        raise ValueError("point 2 always diverges")
    return {"y": params["x"]}


def journaled_kernel(params, streams):
    """Appends each call to the ``journal`` file, then fails at x == 2."""
    with open(params["journal"], "a", encoding="utf-8") as journal:
        journal.write(f"{params['x']}\n")
    return fragile_kernel(params, streams)


def typed_kernel(params, streams):
    """Returns the wrong type to exercise the contract check."""
    return [params["x"]]


# ---------------------------------------------------------------------------
# SweepSpec / Point
# ---------------------------------------------------------------------------


class TestSweepSpec:
    def test_grid_expands_in_axis_declaration_order(self):
        spec = SweepSpec.grid(
            "X", axes={"a": (1, 2), "b": (10, 20)}, fixed={"c": 5}
        )
        points = spec.points()
        assert [p.params for p in points] == [
            {"c": 5, "a": 1, "b": 10},
            {"c": 5, "a": 1, "b": 20},
            {"c": 5, "a": 2, "b": 10},
            {"c": 5, "a": 2, "b": 20},
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert len(spec) == 4
        assert spec.x_axis == "a"

    def test_from_points_preserves_order(self):
        spec = SweepSpec.from_points(
            "X", points=[{"arch": "dual"}, {"arch": "shared"}], fixed={"n": 1}
        )
        assert [p.params["arch"] for p in spec.points()] == ["dual", "shared"]
        assert spec.x_axis is None

    def test_hash_is_content_addressed(self):
        a = content_hash("X", {"p": 1, "q": 2})
        b = content_hash("X", {"q": 2, "p": 1})
        assert a == b  # key order is canonicalised away
        assert content_hash("X", {"p": 1, "q": 3}) != a
        assert content_hash("Y", {"p": 1, "q": 2}) != a

    def test_tuples_and_lists_hash_identically(self):
        assert content_hash("X", {"v": (1, 2)}) == content_hash(
            "X", {"v": [1, 2]}
        )

    def test_unhashable_param_is_rejected(self):
        with pytest.raises(TypeError):
            content_hash("X", {"fn": object()})

    def test_point_seed_derives_from_hash_only(self):
        p1 = SweepSpec.grid("X", axes={"a": (1,)}).points()[0]
        p2 = SweepSpec.grid("X", axes={"a": (1,)}).points()[0]
        assert p1.seed == p2.seed
        assert p1.streams().stream("s").random() == p2.streams().stream(
            "s"
        ).random()

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.grid("X", axes={})
        with pytest.raises(ValueError):
            SweepSpec.grid("X", axes={"a": ()})


# ---------------------------------------------------------------------------
# ResultStore / RunLog
# ---------------------------------------------------------------------------


class TestResultStore:
    def point(self):
        return SweepSpec.grid("X", axes={"a": (1,)}).points()[0]

    def test_round_trip_is_bit_exact(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="f" * 16)
        values = {"y": 0.1 + 0.2, "n": 3}
        store.put(self.point(), "k", values)
        got = store.get(self.point(), "k")
        assert got == values
        assert got["y"].hex() == (0.1 + 0.2).hex()

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="f" * 16)
        assert store.get(self.point(), "k") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="f" * 16)
        path = store.put(self.point(), "k", {"y": 1})
        path.write_text("{ not json", encoding="utf-8")
        assert store.get(self.point(), "k") is None

    def test_fingerprint_partitions_the_cache(self, tmp_path):
        old = ResultStore(root=tmp_path, fingerprint="a" * 16)
        new = ResultStore(root=tmp_path, fingerprint="b" * 16)
        old.put(self.point(), "k", {"y": 1})
        assert new.get(self.point(), "k") is None
        assert (self.point(), "k") in old
        assert (self.point(), "k") not in new

    def test_kernel_name_partitions_the_cache(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="f" * 16)
        store.put(self.point(), "mod:f", {"y": 1})
        assert store.get(self.point(), "mod:g") is None

    def test_cost_model_fingerprint_is_stable(self):
        assert cost_model_fingerprint() == cost_model_fingerprint()
        assert len(cost_model_fingerprint()) == 16

    def test_source_edit_changes_the_key(self, tmp_path):
        # A warm cache must not serve points computed by older code:
        # two source trees one byte apart give different keys, and a
        # byte-identical copy elsewhere gives the same key.
        package = Path(repro.__file__).parent
        same, edited = tmp_path / "same", tmp_path / "edited"
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(package, same, ignore=ignore)
        shutil.copytree(package, edited, ignore=ignore)
        link = edited / "atm" / "link.py"
        text = link.read_bytes()
        link.write_bytes(text.replace(b"cell_time", b"cell_timf", 1))
        assert len(link.read_bytes()) == len(text)

        def key(tree):
            store = ResultStore(
                root=tmp_path / "cache", fingerprint=store_fingerprint(tree)
            )
            return store.key(self.point(), "k")

        assert key(same) == key(package)
        assert key(edited) != key(package)
        assert ResultStore(root=tmp_path).fingerprint == store_fingerprint()

    def test_run_log_records_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path) as log:
            log.event("sweep_started", points=3)
            log.event("point_completed", index=0)
        lines = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert [l["event"] for l in lines] == [
            "sweep_started",
            "point_completed",
        ]
        assert lines[0]["points"] == 3
        assert log.events_written == 2


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class TestExecutor:
    SPEC = SweepSpec.grid("X", axes={"x": (1, 2, 3, 4)})

    def test_serial_and_parallel_values_identical(self):
        serial = run_sweep(self.SPEC, noisy_kernel, workers=1)
        parallel = run_sweep(self.SPEC, noisy_kernel, workers=3)
        assert serial.values == parallel.values
        assert [v["y"].hex() for v in serial.values] == [
            v["y"].hex() for v in parallel.values
        ]

    def test_failure_is_contained_to_its_point(self):
        run = Executor(workers=0).run(self.SPEC, fragile_kernel)
        assert not run.ok
        assert [f.point.params["x"] for f in run.failures] == [2]
        # the healthy points all completed despite the casualty
        healthy = [v for v in run.values if v is not None]
        assert [v["y"] for v in healthy] == [1, 3, 4]
        assert run.stats["failed"] == 1
        assert run.stats["executed"] == 3

    def test_failure_is_contained_in_parallel_too(self):
        run = Executor(workers=2).run(self.SPEC, fragile_kernel)
        assert [f.point.params["x"] for f in run.failures] == [2]
        assert sum(v is not None for v in run.values) == 3

    def test_run_sweep_raises_loudly_naming_the_casualty(self):
        with pytest.raises(SweepError) as excinfo:
            run_sweep(self.SPEC, fragile_kernel)
        assert "1 of 4" in str(excinfo.value)
        assert "x=2" in str(excinfo.value)
        # the partial run rides along for forensics
        assert sum(v is not None for v in excinfo.value.run.values) == 3

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failing_point_runs_exactly_once(self, workers, tmp_path):
        journal = tmp_path / "calls.txt"
        spec = SweepSpec.grid(
            "X", axes={"x": (1, 2, 3, 4)}, fixed={"journal": str(journal)}
        )
        run = Executor(workers=workers).run(spec, journaled_kernel)
        assert [f.point.params["x"] for f in run.failures] == [2]
        assert sorted(journal.read_text().split()) == ["1", "2", "3", "4"]

    def test_non_dict_return_is_an_error(self):
        run = Executor(workers=0).run(self.SPEC, typed_kernel)
        assert len(run.failures) == 4
        assert "expected dict" in run.failures[0].error

    def test_cache_warm_run_executes_nothing(self, tmp_path):
        store = ResultStore(root=tmp_path, fingerprint="f" * 16)
        cold = Executor(workers=0)
        cold.run(self.SPEC, noisy_kernel, store=store)
        assert cold.stats["executed"] == 4
        warm = Executor(workers=0)
        run = warm.run(self.SPEC, noisy_kernel, store=store)
        assert warm.stats == {
            "points": 4,
            "executed": 0,
            "cached": 4,
            "failed": 0,
        }
        assert run.values == cold.run(self.SPEC, noisy_kernel).values

    def test_run_log_covers_every_point(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl")
        run_sweep(self.SPEC, noisy_kernel, log=log)
        log.close()
        events = [
            json.loads(line)["event"]
            for line in log.path.read_text().strip().splitlines()
        ]
        assert events[0] == "sweep_started"
        assert events[-1] == "sweep_completed"
        assert events.count("point_completed") == 4

    def test_series_assembles_in_spec_order(self):
        run = run_sweep(self.SPEC, noisy_kernel)
        series = run.series(name="s")
        assert series.x == [1, 2, 3, 4]
        assert series.x_label == "x"

    def test_kernel_name_is_dotted_identity(self):
        assert kernel_name(noisy_kernel).endswith("test_runner:noisy_kernel")


# ---------------------------------------------------------------------------
# the acceptance property: F7 parallel == serial == cache-warm, bytewise
# ---------------------------------------------------------------------------


F7_KWARGS = dict(clocks_mhz=(20, 33), window=0.004)


def _series_bytes(result):
    """Every float of a Series, spelled exactly."""
    series = result.series
    payload = [series.x_label, [float(x).hex() for x in series.x]]
    for name in sorted(series.columns):
        payload.append([name, [float(v).hex() for v in series.columns[name]]])
    return payload


class TestF7EndToEnd:
    def test_parallel_and_warm_runs_are_byte_identical(self, tmp_path):
        serial = run_f7(**F7_KWARGS, workers=1)

        parallel = run_f7(**F7_KWARGS, workers=4)
        assert _series_bytes(parallel) == _series_bytes(serial)
        assert parallel.metrics == serial.metrics

        store = ResultStore(root=tmp_path)
        cold = run_f7(**F7_KWARGS, workers=4, store=store)
        assert _series_bytes(cold) == _series_bytes(serial)

        # cache-warm: zero simulation points execute, bytes still equal
        warm_executor_probe = Executor(workers=0)
        from repro.results.experiments import _f7_point

        spec = SweepSpec.grid(
            "F7",
            axes={"engine_mhz": F7_KWARGS["clocks_mhz"]},
            fixed={
                "sdu_size": 9180,
                "window": F7_KWARGS["window"],
                "simulate": True,
            },
        )
        run = warm_executor_probe.run(spec, _f7_point, store=store)
        assert warm_executor_probe.stats["executed"] == 0
        assert warm_executor_probe.stats["cached"] == len(spec)

        warm = run_f7(**F7_KWARGS, store=store)
        assert _series_bytes(warm) == _series_bytes(serial)
        assert warm.metrics == serial.metrics


# ---------------------------------------------------------------------------
# fault campaigns as seed sweeps
# ---------------------------------------------------------------------------


class TestCampaignSweep:
    KWARGS = dict(
        preset="uniform-loss", seeds=(1, 2), duration=0.004, pdus_per_vc=4
    )

    def test_seed_sweep_is_parallel_identical(self):
        serial = run_campaign_sweep(**self.KWARGS)
        parallel = run_campaign_sweep(**self.KWARGS, workers=2)
        assert serial.values == parallel.values
        summary = sweep_summary(serial)
        assert summary["seeds"] == 2.0
        assert summary["all_conserved"] == 1.0

    def test_unknown_preset_and_design_fail_fast(self):
        with pytest.raises(ValueError):
            run_campaign_sweep(preset="nope")
        with pytest.raises(ValueError):
            run_campaign_sweep(design="nope")


# ---------------------------------------------------------------------------
# BaselineGate
# ---------------------------------------------------------------------------


def canonical_document(**changes):
    """A canonical result document as the gate reads it, with *changes*."""
    document = {
        "experiment_id": "T9",
        "title": "a test table",
        "headers": ["size", "mbps"],
        "rows": [[64, 12.5], [9180, 131.0]],
        "series": {
            "name": "goodput",
            "x_label": "size",
            "x": [64, 9180],
            "columns": {"mbps": [12.5, 131.0]},
        },
        "metrics": {"a": 100.0, "b": 5.0, "nan": math.nan},
        "notes": ["a note"],
    }
    document.update(changes)
    return json.loads(json.dumps(document))


class TestBaselineGate:
    def gate(self, tmp_path, claims=(), ids=("T9",)):
        gate = BaselineGate(tmp_path)
        for experiment_id in ids:
            gate.write(
                Baseline(
                    experiment=experiment_id,
                    claims=list(claims),
                    note="test baseline",
                    result=canonical_document(),
                )
            )
        return gate

    def test_write_load_round_trip(self, tmp_path):
        gate = self.gate(tmp_path, claims=["c holds"])
        loaded = gate.load("T9")
        assert gate.compare("T9", loaded.result).moved == {"T9": []}
        assert loaded.claims == ["c holds"]
        assert loaded.note == "test baseline"
        assert gate.known() == ["T9"]
        text = gate.path_for("T9").read_text()
        assert list(json.loads(text)) == ["experiment", "claims", "note", "result"]
        # One value per line: a moved number is one line of the diff.
        lines = [line.strip().rstrip(",") for line in text.splitlines()]
        assert lines.count("12.5") == lines.count("131.0") == 2

    def test_identical_result_passes(self, tmp_path):
        report = self.gate(tmp_path).compare("T9", canonical_document())
        assert report.ok
        assert report.moved == {"T9": []}
        assert "[ok  ] T9 result: as committed" in report.format()
        assert report.verdict == "bench gate: PASS"

    def test_one_ulp_change_fails_and_names_the_field(self, tmp_path):
        run = canonical_document()
        run["series"]["columns"]["mbps"][1] = math.nextafter(131.0, math.inf)
        report = self.gate(tmp_path).compare("T9", run)
        assert not report.ok
        assert report.moved == {
            "T9": ["series.columns.mbps[1]: 131.0 -> 131.00000000000003"]
        }
        assert "[FAIL] T9 result: 1 field(s) moved" in report.format()

    def test_changed_note_fails(self, tmp_path):
        run = canonical_document(notes=["a changed note"])
        report = self.gate(tmp_path).compare("T9", run)
        assert not report.ok
        assert report.moved == {"T9": ['notes[0]: "a note" -> "a changed note"']}

    def test_missing_or_added_metric_fails(self, tmp_path):
        gate = self.gate(tmp_path)
        dropped = canonical_document()
        del dropped["metrics"]["b"]
        assert gate.compare("T9", dropped).moved == {
            "T9": ["metrics.b: 5.0 -> missing"]
        }
        added = canonical_document()
        added["metrics"]["c"] = 1.0
        assert gate.compare("T9", added).moved == {
            "T9": ["metrics.c: missing -> 1.0"]
        }
        added["rows"].append([65535, 134.0])
        assert gate.compare("T9", added).moved["T9"][-1] == (
            "rows[2]: missing -> [65535, 134.0]"
        )

    def test_leaves_compare_by_json_text(self, tmp_path):
        gate = self.gate(tmp_path)
        # NaN matches NaN (canonical_document carries one) ...
        assert gate.compare("T9", canonical_document()).ok
        # ... and nothing else; an int does not match the equal float.
        nan_moved = canonical_document()
        nan_moved["metrics"]["nan"] = 1.0
        assert gate.compare("T9", nan_moved).moved == {
            "T9": ["metrics.nan: NaN -> 1.0"]
        }
        retyped = canonical_document()
        retyped["rows"][1][1] = 131
        assert gate.compare("T9", retyped).moved == {
            "T9": ["rows[1][1]: 131.0 -> 131"]
        }

    def test_false_or_dropped_claim_fails(self, tmp_path):
        gate = self.gate(tmp_path, claims=["c holds"])
        result = canonical_document()
        assert gate.compare("T9", result, {"c holds": True}).ok
        false = gate.compare("T9", result, {"c holds": False})
        assert not false.ok
        assert "[FAIL] T9 claim: c holds" in false.format()
        dropped = gate.compare("T9", result, {"d holds": True})
        assert not dropped.ok
        assert "claim missing from run" in dropped.format()

    def test_merge_aggregates_verdicts(self, tmp_path):
        gate = self.gate(tmp_path, ids=("T8", "T9"))
        ok = gate.compare("T8", canonical_document())
        bad = gate.compare("T9", canonical_document(metrics={"a": 0.0}))
        merged = gate.merge({"T9": bad, "T8": ok})
        assert not merged.ok
        assert list(merged.moved) == ["T8", "T9"]
        assert len(merged.moved["T9"]) == 3
        assert merged.verdict == (
            "bench gate: FAIL (3 result field(s) moved, 0 claim(s) false)"
        )


# ---------------------------------------------------------------------------
# the registry and the bench CLI
# ---------------------------------------------------------------------------


class TestRegistryAndBench:
    def test_registry_mirrors_experiments(self):
        from repro.results.experiments import EXPERIMENTS, get

        for experiment_id, experiment in EXPERIMENTS.items():
            assert experiment.description.startswith(experiment_id)
        assert get("f7") is EXPERIMENTS["F7"]
        assert get("f7").sweep
        assert not get("T1").sweep
        with pytest.raises(KeyError):
            get("T99")

    def test_bench_update_then_check_round_trips(self, tmp_path, capsys):
        from repro.runner.bench import main as bench_main

        baselines = tmp_path / "baselines"
        cache = tmp_path / "cache"
        common = [
            "T1",
            "--baseline-dir",
            str(baselines),
            "--cache-dir",
            str(cache),
        ]
        assert bench_main(common + ["--update"]) == 0
        path = baselines / "T1.json"
        assert json.loads(path.read_text())["result"] == json.loads(
            canonical_result_json(run_t1())
        )
        assert bench_main(common + ["--check"]) == 0

        # move one committed value by one ulp -> exit 1, naming the field
        payload = json.loads(path.read_text())
        metric = sorted(payload["result"]["metrics"])[0]
        value = payload["result"]["metrics"][metric]
        payload["result"]["metrics"][metric] = math.nextafter(value, math.inf)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert bench_main(common + ["--check"]) == 1
        out = capsys.readouterr().out
        assert f"metrics.{metric}: " in out
        assert "bench gate: FAIL (1 result field(s) moved, 0 claim(s) false)" in out

    def test_false_claim_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        from dataclasses import replace

        from repro.results.experiments import EXPERIMENTS
        from repro.runner.bench import main as bench_main

        common = ["T1", "--baseline-dir", str(tmp_path), "--no-cache"]
        assert bench_main(common + ["--update"]) == 0
        t1 = EXPERIMENTS["T1"]
        name = next(iter(t1.claims(t1())))
        monkeypatch.setitem(
            EXPERIMENTS,
            "T1",
            replace(t1, claims=lambda result: {**t1.claims(result), name: False}),
        )
        capsys.readouterr()
        assert bench_main(common + ["--check"]) == 1
        assert f"[FAIL] T1 claim: {name}" in capsys.readouterr().out

    def test_bench_check_without_baseline_fails(self, tmp_path):
        from repro.runner.bench import main as bench_main

        code = bench_main(
            ["T1", "--baseline-dir", str(tmp_path / "void"), "--check", "--no-cache"]
        )
        assert code == 1

    def test_committed_baselines_cover_the_bench_set(self):
        from repro.results.experiments import EXPERIMENTS
        from repro.runner.bench import default_baseline_dir

        directory = default_baseline_dir()
        assert directory == Path(__file__).resolve().parent.parent / (
            "benchmarks/baselines"
        )
        gate = BaselineGate(directory)
        assert gate.known() == sorted(EXPERIMENTS)
        for experiment_id in EXPERIMENTS:
            text = gate.path_for(experiment_id).read_text()
            assert list(json.loads(text)) == ["experiment", "claims", "note", "result"]
            baseline = gate.load(experiment_id)
            assert baseline.claims, experiment_id
            assert baseline.result["experiment_id"] == experiment_id

    def test_cli_flags_reach_the_runner(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            [
                "F6",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--log",
                str(tmp_path / "run.jsonl"),
            ]
        )
        assert code == 0
        assert (tmp_path / "run.jsonl").exists()
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        assert "sweep_started" in events

    def test_help_enumerates_every_experiment(self, capsys):
        from repro.cli import build_parser
        from repro.results.experiments import EXPERIMENTS

        text = build_parser().format_help()
        for experiment_id in EXPERIMENTS:
            assert f"\n  {experiment_id}" in text


def test_instrument_executor_exposes_counters():
    from repro.obs import instrument
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.core import Simulator

    registry = MetricsRegistry(Simulator())
    executor = Executor(workers=0)
    instrument(registry, executor)
    executor.run(SweepSpec.grid("X", axes={"x": (1, 2)}), noisy_kernel)
    snap = registry.snapshot()
    assert snap["runner.points"] == 2
    assert snap["runner.executed"] == 2
    assert snap["runner.cached"] == 0

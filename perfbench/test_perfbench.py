"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import fold  # noqa: E402
import workloads  # noqa: E402

PKG = os.path.join(os.sep, "co", "src", "repro")
BENCH = os.path.join(os.sep, "co", "perfbench")


def _file(*parts: str) -> str:
    return os.path.join(PKG, *parts)


def _row(key, file, self_s, calls, callers=None):
    return fold.Row(key, file, self_s, calls, dict(callers or {}))


def _synthetic():
    """nic code calling the kernel, a builtin, and stdlib -> generated code."""
    return [
        _row("send", _file("nic", "tx.py"), 2.0, 10),
        _row("schedule", _file("sim", "core.py"), 3.0, 5, {"send": (3.0, 5)}),
        _row("len", "", 1.0, 4, {"send": (0.25, 1), "schedule": (0.75, 3)}),
        _row("replace", "/usr/lib/python3/dataclasses.py", 0.5, 2, {"send": (0.5, 2)}),
        _row("__init__", "<string>", 0.4, 2, {"replace": (0.4, 2)}),
        _row("disable", "", 0.1, 1),
        _row("sender", os.path.join(BENCH, "workloads.py"), 0.3, 3),
    ]


def test_fold_charges_foreign_time_along_caller_edges():
    layer_of = fold.layer_classifier(PKG, BENCH)
    folded = fold.fold(_synthetic(), layer_of, PKG, {"sends": "send"})
    seconds = folded["self_s"]
    assert seconds["nic"] == pytest.approx(2.0 + 0.25 + 0.5 + 0.4)
    assert seconds["sim"] == pytest.approx(3.0 + 0.75)
    # No layer reaches "disable": it goes to the code that opened the
    # profiled region.
    assert seconds["bench"] == pytest.approx(0.1 + 0.3)
    assert folded["total_s"] == pytest.approx(7.3)
    assert sum(folded["self_pct"].values()) == pytest.approx(100.0)
    assert folded["kernel_calls"]["nic"] == 5
    assert folded["counts"] == {"sends": 10}


def test_layer_classifier():
    layer_of = fold.layer_classifier(PKG, BENCH)
    assert layer_of(_file("atm", "switch.py")) == "atm"
    assert layer_of(_file("faults", "audit.py")) == "other"
    assert layer_of(_file("cli.py")) == "other"
    assert layer_of(os.path.join(BENCH, "run.py")) == "bench"
    assert layer_of("/usr/lib/python3/heapq.py") is None
    assert layer_of("<string>") is None
    assert layer_of("") is None


def test_attribution_weighs_by_calls_without_time_and_survives_cycles():
    layer_of = fold.layer_classifier(PKG, BENCH)
    rows = [
        _row("cell", _file("atm", "cell.py"), 1.0, 1),
        _row("host", _file("host", "cpu.py"), 1.0, 1),
        # No self time under any caller: weighted by call counts, 3:1.
        _row("helper", "", 0.0, 4, {"cell": (0.0, 3), "host": (0.0, 1)}),
        # A cycle between two foreign functions, entered from atm.
        _row("ping", "", 0.2, 2, {"cell": (0.1, 1), "pong": (0.1, 1)}),
        _row("pong", "", 0.2, 1, {"ping": (0.2, 1)}),
    ]
    mixes = fold.attribute(rows, layer_of)
    assert mixes["helper"] == pytest.approx({"atm": 0.75, "host": 0.25})
    assert mixes["ping"] == {"atm": 1.0}
    assert mixes["pong"] == {"atm": 1.0}
    folded = fold.fold(rows, layer_of, PKG)
    assert sum(folded["self_pct"].values()) == pytest.approx(100.0)


def test_table_from_a_real_profile_sums_to_all_self_time():
    def leaf(n):
        return sum(range(n))

    def branch():
        return [leaf(200) for _ in range(50)]

    profiler = cProfile.Profile()
    profiler.enable()
    branch()
    profiler.disable()
    rows = fold.table_from_stats(profiler.getstats())
    by_name = {row.key.rsplit(":", 1)[-1]: row for row in rows}
    leaf_row = next(row for key, row in by_name.items() if key.endswith("leaf"))
    assert leaf_row.calls == 50
    assert sum(calls for _, calls in leaf_row.callers.values()) == 50
    layer_of = fold.layer_classifier(PKG, HERE)
    folded = fold.fold(rows, layer_of, PKG)
    assert folded["self_s"]["bench"] == pytest.approx(folded["total_s"])


# -- output checks ---------------------------------------------------------


@dataclasses.dataclass
class _Completion:
    vc: tuple
    sdu: bytes
    delivered_at: float = 0.0


class _Vc(tuple):
    vpi = property(lambda self: self[0])
    vci = property(lambda self: self[1])


def test_delivery_check_in_order_identical():
    vc = _Vc((0, 32))
    check = workloads.DeliveryCheck()
    for sdu in (b"a" * 40, b"b" * 40, b"c" * 40):
        check.post(vc, sdu)
    for sdu in (b"a" * 40, b"b" * 40, b"c" * 40):
        assert check.deliver(_Completion(vc, sdu))
    assert check.finish() == 0


def test_delivery_check_fails_corrupted_dropped_and_reordered():
    vc = _Vc((0, 32))
    corrupted = workloads.DeliveryCheck()
    corrupted.post(vc, b"abc")
    corrupted.post(vc, b"def")
    assert not corrupted.deliver(_Completion(vc, b"abX"))
    assert corrupted.deliver(_Completion(vc, b"def"))
    assert corrupted.finish() == 1

    dropped = workloads.DeliveryCheck()
    for sdu in (b"1", b"2", b"3"):
        dropped.post(vc, sdu)
    dropped.deliver(_Completion(vc, b"1"))
    dropped.deliver(_Completion(vc, b"3"))
    assert dropped.finish() == 1

    lost_tail = workloads.DeliveryCheck()
    lost_tail.post(vc, b"1")
    assert lost_tail.finish() == 1


def _tiny_bulk(tamper):
    workload = workloads.Bulk(seed=3, measure_sim_s=0.002)
    workload.build()
    receiver = workload.hosts[1]
    deliver = receiver.on_pdu
    receiver.on_pdu = lambda completion: tamper(completion, deliver)
    workload.warm_up()
    workload.measure_slice(0, 1)
    workload.drain()
    return workload.verdict()


def test_intact_run_passes_the_output_check():
    verdict = _tiny_bulk(lambda completion, deliver: deliver(completion))
    assert verdict["failed"] == 0
    assert verdict["attempted"] > 2
    assert verdict["conserved"] and verdict["unaccounted"] == 0


def test_corrupted_sdu_fails_the_output_check():
    seen = []

    def corrupt_second(completion, deliver):
        seen.append(completion)
        if len(seen) == 2:
            sdu = bytearray(completion.sdu)
            sdu[100] ^= 0xFF
            completion = dataclasses.replace(completion, sdu=bytes(sdu))
        deliver(completion)

    verdict = _tiny_bulk(corrupt_second)
    assert verdict["failed"] == 1


def test_dropped_sdu_fails_the_output_check():
    seen = []

    def drop_second(completion, deliver):
        seen.append(completion)
        if len(seen) != 2:
            deliver(completion)

    verdict = _tiny_bulk(drop_second)
    assert verdict["failed"] == 1


# -- determinism, end to end -----------------------------------------------


def _profile_child(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.05", "--profile-child",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["small", "churn"])
def test_one_seed_repeats_digest_and_counts(workload):
    first = _profile_child(workload, 5)
    second = _profile_child(workload, 5)
    other = _profile_child(workload, 6)
    assert first["failed"] == 0 and first["conserved"]
    assert first["digest"] == second["digest"]
    for key in ("cells", "profiled_cells", "events", "peak_queue", "crc_bytes"):
        assert first[key] == second[key], key
    assert first["folded"]["kernel_calls"] == second["folded"]["kernel_calls"]
    assert first["folded"]["counts"] == second["folded"]["counts"]
    assert other["digest"] != first["digest"]
    assert sum(first["folded"]["self_pct"].values()) == pytest.approx(100.0)


def test_traced_run_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", "bulk", "--seed", "2", "--seconds", "0.05",
            "--trace", "1",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    shares = sum(
        metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(".self_pct")
    )
    assert shares == pytest.approx(100.0)


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "bulk",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

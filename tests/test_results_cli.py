"""Experiment harness plumbing: tables, registry, CLI."""

import pytest

from repro.analysis.sweep import Series
from repro.cli import main
from repro.results import EXPERIMENTS, format_series, format_table, run_experiment
from repro.results.experiments import (
    lab_host,
    run_t1,
    run_t2,
    steady_goodput_mbps,
    windowed_goodput_mbps,
)
from repro.nic import aurora_oc3
from repro.nic.descriptors import RxCompletion
from repro.atm import VcAddress


class TestTables:
    def test_basic_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_series_rendering(self):
        series = Series("s", "x")
        series.add_point(1, y=2.0)
        text = format_series(series, title="Fig")
        assert "Fig" in text and "x" in text and "y" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[float("inf")], [123456.0], [0.000123]])
        assert "inf" in text
        assert "123,456" in text


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "T1", "T2", "T3", "T4", "T5",
            "F2", "F3", "F4", "F5", "F6", "F7", "F8",
            "A1", "A2", "A3", "A4", "R1", "R2", "O1", "C1", "S1",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("T99")

    def test_case_insensitive(self):
        assert run_experiment("t1").experiment_id == "T1"


class TestCheapRunners:
    def test_t1_table_shape(self):
        result = run_t1()
        assert result.experiment_id == "T1"
        assert result.headers == ["operation", "cycles", "time (us)"]
        assert len(result.rows) >= 8
        assert "cell_middle_us" in result.metrics
        assert result.to_text()

    def test_t2_reports_both_lookup_modes(self):
        result = run_t2()
        assert "cell_middle_cam_us" in result.metrics
        assert "cell_middle_sw_us" in result.metrics
        assert (
            result.metrics["cell_middle_sw_us"]
            > result.metrics["cell_middle_cam_us"]
        )


class TestHelpers:
    def _completion(self, t, size=100):
        return RxCompletion(
            vc=VcAddress(0, 100),
            sdu=b"x" * size,
            buffer=None,
            received_at=t,
            delivered_at=t,
            cells=1,
        )

    def test_steady_goodput_excludes_rampup(self):
        completions = [self._completion(t) for t in (0.0, 1.0, 2.0)]
        # 200 bytes over 2 seconds.
        assert steady_goodput_mbps(completions) == pytest.approx(
            200 * 8 / 2 / 1e6
        )

    def test_steady_goodput_needs_three(self):
        assert steady_goodput_mbps([self._completion(0.0)]) == 0.0

    def test_windowed_goodput(self):
        completions = [self._completion(t) for t in (0.1, 0.5, 0.9)]
        mbps = windowed_goodput_mbps(completions, 0.4, 1.0)
        assert mbps == pytest.approx(200 * 8 / 0.6 / 1e6)

    def test_lab_host_zeroes_software(self):
        config = lab_host(aurora_oc3())
        assert config.os_costs.syscall_cycles == 0
        assert config.interrupt.entry_cycles == 0
        # Adaptor untouched.
        assert config.tx_costs == aurora_oc3().tx_costs


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "F8" in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2

    def test_unknown_experiment(self, capsys):
        assert main(["T99"]) == 2

    def test_runs_cheap_experiment(self, capsys):
        assert main(["T1"]) == 0
        out = capsys.readouterr().out
        assert "TX segmentation budget" in out

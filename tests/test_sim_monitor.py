"""Statistics accumulators: numerical behaviour and edge cases."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    Counter,
    SeriesRecorder,
    Simulator,
    ThroughputMeter,
    TimeWeightedStat,
    WelfordStat,
)


def _welford(samples):
    stat = WelfordStat()
    for x in samples:
        stat.add(x)
    return stat


class TestCounter:
    def test_increment(self):
        c = Counter("x")
        c.increment()
        c.increment(4)
        assert c.count == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)


class TestWelford:
    def test_mean_and_variance_match_direct_formulas(self):
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stat = _welford(data)
        mean = sum(data) / len(data)
        var = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
        assert stat.mean == pytest.approx(mean)
        assert stat.variance == pytest.approx(var)
        assert stat.minimum == 2.0
        assert stat.maximum == 9.0

    def test_empty_stat_is_safe(self):
        stat = WelfordStat()
        assert stat.mean == 0.0
        assert stat.variance == 0.0
        assert stat.stdev == 0.0

    def test_single_sample(self):
        stat = _welford([3.0])
        assert stat.mean == 3.0
        assert stat.variance == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_mean_bounded_by_extremes(self, xs):
        stat = _welford(xs)
        assert min(xs) - 1e-6 <= stat.mean <= max(xs) + 1e-6


class TestTimeWeighted:
    def test_piecewise_constant_mean(self):
        stat = TimeWeightedStat(0.0, 0.0)
        stat.record(2.0, 10.0)  # level 0 for 2s
        stat.record(4.0, 0.0)  # level 10 for 2s
        assert stat.mean(4.0) == pytest.approx(5.0)

    def test_mean_extends_last_level(self):
        stat = TimeWeightedStat(0.0, 4.0)
        assert stat.mean(10.0) == pytest.approx(4.0)

    def test_maximum_tracked(self):
        stat = TimeWeightedStat()
        stat.record(1.0, 7.0)
        stat.record(2.0, 3.0)
        assert stat.maximum == 7.0

    def test_time_backwards_rejected(self):
        stat = TimeWeightedStat()
        stat.record(5.0, 1.0)
        with pytest.raises(ValueError):
            stat.record(4.0, 2.0)

    def test_zero_span_returns_current(self):
        stat = TimeWeightedStat(1.0, 9.0)
        assert stat.mean(1.0) == 9.0


class TestThroughputMeter:
    def test_rate_computation(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)
        meter.account(1000)
        sim.timeout(2.0)
        sim.run()
        assert meter.bits_per_second() == pytest.approx(4000.0)
        assert meter.megabits_per_second() == pytest.approx(0.004)

    def test_zero_span_is_zero_rate(self):
        meter = ThroughputMeter(Simulator())
        meter.account(100)
        assert meter.bits_per_second() == 0.0

    def test_negative_bytes_rejected(self):
        meter = ThroughputMeter(Simulator())
        with pytest.raises(ValueError):
            meter.account(-1)


class TestSeriesRecorder:
    def test_record_and_query(self):
        s = SeriesRecorder("occupancy")
        s.record(0.0, 1.0)
        s.record(1.0, 5.0)
        s.record(2.0, 3.0)
        assert len(s) == 3
        assert s.times == [0.0, 1.0, 2.0]
        assert s.values == [1.0, 5.0, 3.0]

    def test_time_must_not_decrease(self):
        s = SeriesRecorder()
        s.record(1.0, 0.0)
        with pytest.raises(ValueError):
            s.record(0.5, 0.0)

"""Random stream discipline: reproducibility and independence."""

import pytest

from repro.sim import RandomStreams


class TestStreams:
    def test_same_seed_same_name_same_draws(self):
        a = RandomStreams(seed=7).stream("traffic")
        b = RandomStreams(seed=7).stream("traffic")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x").random()
        b = RandomStreams(seed=2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams()
        assert streams.stream("x") is streams.stream("x")

    def test_adding_consumer_does_not_perturb_existing(self):
        first = RandomStreams(seed=3)
        seq_before = [first.stream("loss").random() for _ in range(3)]

        second = RandomStreams(seed=3)
        second.stream("new-consumer").random()  # extra consumer
        seq_after = [second.stream("loss").random() for _ in range(3)]
        assert seq_before == seq_after


class TestDraws:
    def test_exponential_positive_and_mean(self):
        streams = RandomStreams(seed=1)
        draws = [streams.exponential("e", 2.0) for _ in range(4000)]
        assert all(d >= 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.1)

    def test_exponential_mean_validation(self):
        with pytest.raises(ValueError):
            RandomStreams().exponential("e", 0.0)

"""Process semantics: suspension, return values, failures."""

import pytest

from repro.sim.process import Process


class TestBasics:
    def test_process_runs_at_current_instant(self, sim):
        hits = []

        def body():
            hits.append(sim.now)
            yield sim.timeout(1.0)

        sim.process(body())
        sim.run()
        assert hits == [0.0]

    def test_timeout_resumes_at_right_time(self, sim):
        times = []

        def body():
            yield sim.timeout(0.5)
            times.append(sim.now)
            yield sim.timeout(0.25)
            times.append(sim.now)

        sim.process(body())
        sim.run()
        assert times == [0.5, 0.75]

    def test_return_value_becomes_event_value(self, sim):
        def body():
            yield sim.timeout(1.0)
            return 42

        proc = sim.process(body())
        sim.run()
        assert proc.value == 42

    def test_join_another_process(self, sim):
        def child():
            yield sim.timeout(2.0)
            return "done"

        results = []

        def parent():
            outcome = yield sim.process(child())
            results.append((sim.now, outcome))

        sim.process(parent())
        sim.run()
        assert results == [(2.0, "done")]

    def test_yielded_event_value_is_delivered(self, sim):
        seen = []

        def body():
            value = yield sim.timeout(1.0, value="hello")
            seen.append(value)

        sim.process(body())
        sim.run()
        assert seen == ["hello"]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_yielding_non_event_fails_process(self, sim):
        def body():
            yield "not an event"

        proc = sim.process(body())
        sim.run()
        assert proc.triggered
        assert isinstance(proc.exception, TypeError)

    def test_exception_in_body_propagates_to_waiter(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("inner")

        outcomes = []

        def waiter():
            try:
                yield sim.process(bad())
            except RuntimeError as exc:
                outcomes.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert outcomes == ["inner"]

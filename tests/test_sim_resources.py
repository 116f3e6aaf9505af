"""Store contention semantics."""

import pytest

from repro.sim import Store


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.process(getter())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((sim.now, item))

        def putter():
            yield sim.timeout(2.0)
            yield store.put("late")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert got == [(2.0, "late")]

    def test_bounded_put_blocks_until_space(self, sim):
        store = Store(sim, capacity=1)
        events = []

        def producer():
            yield store.put(1)
            events.append(("accepted-1", sim.now))
            yield store.put(2)
            events.append(("accepted-2", sim.now))

        def consumer():
            yield sim.timeout(3.0)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert events == [("accepted-1", 0.0), ("accepted-2", 3.0)]

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_try_get(self, sim):
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None
        store.try_put("a")
        ok, item = store.try_get()
        assert ok and item == "a"

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.try_put(i)
        out = []

        def drain():
            for _ in range(5):
                out.append((yield store.get()))

        sim.process(drain())
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_direct_handoff_to_waiting_getter(self, sim):
        store = Store(sim, capacity=1)
        got = []

        def getter():
            got.append((yield store.get()))

        sim.process(getter())
        sim.run()
        assert store.try_put("direct")
        sim.run()
        assert got == ["direct"]
        assert len(store) == 0

    def test_peak_occupancy_tracked(self, sim):
        store = Store(sim)
        for i in range(7):
            store.try_put(i)
        store.try_get()
        assert store.peak_occupancy == 7

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_counters(self, sim):
        store = Store(sim)
        store.try_put("a")
        store.try_put("b")
        store.try_get()
        assert store.total_put == 2
        assert store.total_got == 1

"""Store contention semantics."""

import pytest

from repro.sim import Store


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.offer("x", lambda: None)
        got = []
        store.pull(got.append)
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []
        store.pull(lambda item: got.append((sim.now, item)))
        sim.schedule_call(2.0, store.offer, "late", lambda: None)
        sim.run()
        assert got == [(2.0, "late")]

    def test_bounded_put_blocks_until_space(self, sim):
        store = Store(sim, capacity=1)
        events = []

        def accepted(n):
            events.append((f"accepted-{n}", sim.now))

        for n in (1, 2):
            if store.offer(n, accepted, n):
                accepted(n)
        sim.schedule_call(3.0, store.pull, lambda item: None)
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
        for _ in range(5):
            store.pull(out.append)
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_direct_handoff_to_waiting_getter(self, sim):
        store = Store(sim, capacity=1)
        got = []
        store.pull(got.append)
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

    def test_callback_forms_hand_over_in_the_calling_entry(self, sim):
        # pull() from an empty store is handed the next offered item at
        # once; offer() to a full store waits, and the pull that makes
        # room runs its consumer before the admitted producer resumes.
        store = Store(sim, capacity=1)
        log = []
        store.pull(lambda item: log.append(("got", item)))
        assert store.offer("a", log.append, "never")
        assert store.offer("b", log.append, "never")
        assert not store.offer("c", log.append, ("resumed", "c"))
        store.pull(lambda item: log.append(("got", item)))
        assert log == [("got", "a"), ("got", "b"), ("resumed", "c")]
        assert store.try_get() == (True, "c")
        assert sim.pending_events() == 0

"""Property-based invariants across the kernel and the data path.

These tests drive randomised operation sequences through the core data
structures and assert the conservation laws the rest of the system
relies on: stores neither lose nor duplicate items, resources never
exceed capacity, FIFOs conserve cells, buffer memory never goes
negative, and the end-to-end SAR pipeline delivers exactly the bytes
that were sent.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro.atm import AtmCell
from repro.nic import AdaptorBufferMemory, BufferMemorySpec, CellFifo
from repro.sim import Resource, Simulator, Store


class TestStoreConservation:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.integers(0, 999)),
                st.tuples(st.just("get"), st.just(0)),
            ),
            max_size=60,
        ),
        capacity=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_items_never_lost_or_duplicated(self, ops, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        offered = []
        accepted = []
        taken = []
        for op, value in ops:
            if op == "put":
                offered.append(value)
                if store.try_put(value):
                    accepted.append(value)
            else:
                ok, item = store.try_get()
                if ok:
                    taken.append(item)
        # Everything taken was accepted, in FIFO order.
        assert taken == accepted[: len(taken)]
        # Whatever remains is the un-taken tail of the accepted stream.
        remaining = []
        while True:
            ok, item = store.try_get()
            if not ok:
                break
            remaining.append(item)
        assert taken + remaining == accepted
        # Capacity was never exceeded.
        if capacity is not None:
            assert store.peak_occupancy <= capacity


class TestResourceInvariant:
    @settings(max_examples=30, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        holders=st.integers(1, 12),
        hold_times=st.lists(
            st.floats(0.001, 0.1), min_size=12, max_size=12
        ),
    )
    def test_never_more_holders_than_capacity(self, capacity, holders, hold_times):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)
        max_seen = [0]

        def user(hold):
            grant = resource.request()
            yield grant
            max_seen[0] = max(max_seen[0], resource.in_use)
            yield sim.timeout(hold)
            resource.release(grant)

        for i in range(holders):
            sim.process(user(hold_times[i]))
        sim.run()
        assert max_seen[0] <= capacity
        assert resource.in_use == 0  # all released
        assert resource.queue_length == 0


class TestCellFifoConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        depth=st.integers(1, 16),
        n_cells=st.integers(0, 40),
    )
    def test_in_equals_out_plus_dropped(self, depth, n_cells):
        sim = Simulator()
        fifo = CellFifo(sim, depth_cells=depth)
        payload = bytes(48)
        accepted = 0
        for i in range(n_cells):
            if fifo.try_put(AtmCell(vpi=0, vci=32 + (i % 100), payload=payload)):
                accepted += 1
        drained = 0
        while fifo.try_get() is not None:
            drained += 1
        assert accepted == drained
        assert fifo.overflows.count == n_cells - accepted
        assert accepted <= depth


class TestBufferMemoryInvariant:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["alloc", "release"]),
                st.integers(0, 5),  # owner id
                st.integers(1, 30),  # cells
            ),
            max_size=40,
        )
    )
    def test_occupancy_bounded_and_consistent(self, ops):
        sim = Simulator()
        memory = AdaptorBufferMemory(
            sim, BufferMemorySpec(capacity_cells=64)
        )
        held: dict[int, int] = {}
        for op, owner, cells in ops:
            if op == "alloc":
                if memory.allocate(owner, cells):
                    held[owner] = held.get(owner, 0) + cells
            else:
                freed = memory.release(owner)
                assert freed == held.pop(owner, 0)
        assert memory.used_cells == sum(held.values())
        assert 0 <= memory.used_cells <= 64


class TestEndToEndConservation:
    @settings(max_examples=10, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4000), min_size=1, max_size=6),
    )
    def test_pipeline_delivers_exactly_what_was_sent(self, sizes):
        from repro.nic import aurora_oc3
        from repro.workloads.scenarios import build_point_to_point

        sim = Simulator()
        scenario = build_point_to_point(sim, aurora_oc3())
        payloads = [bytes([i % 256]) * size for i, size in enumerate(sizes)]
        for payload in payloads:
            scenario.sender.post(scenario.vc, payload)
        sim.run(until=0.2)
        assert [c.sdu for c in scenario.received] == payloads


class TestReassemblerCellConservation:
    """Every consumed cell ends in exactly one stats bucket."""

    @staticmethod
    def _check(stats, open_cells):
        assert stats.cells_consumed == (
            stats.cells_delivered
            + stats.cells_discarded
            + stats.cells_orphaned
            + open_cells
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        loss_p=st.floats(0.0, 0.3),
        sizes=st.lists(st.integers(1, 500), min_size=1, max_size=8),
    )
    def test_aal5_under_random_cell_loss(self, seed, loss_p, sizes):
        import random

        from repro.aal.aal5 import Aal5Reassembler, Aal5Segmenter
        from repro.atm.addressing import VcAddress

        rng = random.Random(seed)
        reassembler = Aal5Reassembler()
        for i, size in enumerate(sizes):
            vc = VcAddress(0, 100 + i % 3)
            for c in Aal5Segmenter(vc).segment(bytes(size)):
                if rng.random() >= loss_p:
                    reassembler.receive_cell(c)
            self._check(reassembler.stats, reassembler.open_cells())
        self._check(reassembler.stats, reassembler.open_cells())

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        loss_p=st.floats(0.0, 0.3),
        sizes=st.lists(st.integers(1, 500), min_size=1, max_size=8),
    )
    def test_aal34_under_random_cell_loss(self, seed, loss_p, sizes):
        import random

        from repro.aal.aal34 import Aal34Reassembler, Aal34Segmenter
        from repro.atm.addressing import VcAddress

        rng = random.Random(seed)
        reassembler = Aal34Reassembler()
        for i, size in enumerate(sizes):
            vc = VcAddress(0, 100 + i % 3)
            for c in Aal34Segmenter(vc, mid=i % 4).segment(bytes(size)):
                if rng.random() >= loss_p:
                    reassembler.receive_cell(c)
            self._check(reassembler.stats, reassembler.open_cells())
        self._check(reassembler.stats, reassembler.open_cells())

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        quota=st.integers(1, 3),
        sizes=st.lists(st.integers(100, 800), min_size=2, max_size=8),
    )
    def test_aal5_quota_eviction_conserves(self, seed, quota, sizes):
        """Interleaved VCs over a tight quota: evictions stay on the books."""
        import random

        from repro.aal.aal5 import Aal5Reassembler, Aal5Segmenter
        from repro.atm.addressing import VcAddress

        rng = random.Random(seed)
        reassembler = Aal5Reassembler(max_contexts=quota)
        streams = [
            list(Aal5Segmenter(VcAddress(0, 100 + i)).segment(bytes(size)))
            for i, size in enumerate(sizes)
        ]
        while any(streams):
            stream = rng.choice([s for s in streams if s])
            reassembler.receive_cell(stream.pop(0))
            assert reassembler.active_contexts() <= quota
        self._check(reassembler.stats, reassembler.open_cells())


class TestSystemCellConservation:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        loss_p=st.floats(0.0, 0.1),
        horizon=st.floats(0.002, 0.02),
    )
    def test_audit_balances_at_any_instant(self, seed, loss_p, horizon):
        """The full-path ledger balances even mid-run, loss or not."""
        import random

        from repro.atm.errors import UniformLoss
        from repro.faults.audit import CellConservationAuditor
        from repro.nic import aurora_oc3
        from repro.workloads.scenarios import build_point_to_point

        sim = Simulator()
        scenario = build_point_to_point(
            sim,
            aurora_oc3(),
            n_vcs=2,
            loss_ab=UniformLoss(loss_p, rng=random.Random(seed)),
        )
        auditor = CellConservationAuditor(scenario.link_ab, scenario.receiver)
        for i in range(6):
            scenario.sender.post(scenario.vcs[i % 2], bytes(2000 + 137 * i))
        sim.run(until=horizon)
        auditor.assert_conserved()
        sim.run(until=horizon + 1.0)  # drain + timer sweeps
        ledger = auditor.assert_conserved()
        assert ledger.wire_in_flight == 0
        assert ledger.fifo_queued == 0


class TestGcraAgainstReference:
    """The virtual-scheduling GCRA agrees verdict-for-verdict with the
    continuous-state leaky-bucket formulation, for any arrival pattern
    and any (T, tau).  Both sides decide on the exact rational values
    of the float inputs, so a boundary cell has one right answer."""

    @settings(max_examples=80, deadline=None)
    @given(
        gaps=st.lists(
            st.floats(
                min_value=0.0,
                max_value=5e-3,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=50,
        ),
        increment=st.floats(min_value=1e-5, max_value=1e-2),
        tolerance=st.floats(min_value=0.0, max_value=5e-3),
    )
    # A conforming cell exactly at TAT - tau: (t + I) - tau rounds one
    # ulp above t in floats.
    @example(gaps=[0.0018456755452182275, 0.0], increment=2**-8, tolerance=2**-8)
    # A nonconforming cell two ulps before TAT: a float slack in the
    # reference would call it conforming.
    @example(
        gaps=[0.0, 0.004999999999999999, 0.004999999999999999],
        increment=0.01,
        tolerance=0.0,
    )
    def test_verdicts_match_leaky_bucket(self, gaps, increment, tolerance):
        from repro.atm import Gcra

        gcra = Gcra(increment=increment, tolerance=tolerance)

        # Independent reference: I.371's continuous-state leaky bucket.
        bucket = Fraction(0)
        last_conforming = None
        arrivals = []
        t = 0.0
        for gap in gaps:
            t += gap
            arrivals.append(t)

        for arrival in arrivals:
            now = Fraction(arrival)
            if last_conforming is None:
                drained = Fraction(0)
            else:
                drained = max(Fraction(0), bucket - (now - last_conforming))
            expected = drained <= Fraction(tolerance)
            if expected:
                bucket = drained + Fraction(increment)
                last_conforming = now
            assert gcra.conforms(arrival) == expected


class TestShaperConformance:
    """Whatever the offered pattern, the leaky-bucket shaper's output
    stream conforms to the GCRA of its configured rate."""

    @settings(max_examples=50, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2e-3),  # inter-batch gap
                st.integers(min_value=1, max_value=8),  # cells in the batch
            ),
            max_size=20,
        ),
        rate=st.sampled_from([1e3, 1e4, 353207.5]),
    )
    def test_output_never_violates_contract(self, batches, rate):
        from repro.atm import AtmCell, Gcra, LeakyBucketShaper

        sim = Simulator()
        releases = []
        shaper = LeakyBucketShaper(
            sim, cells_per_second=rate, sink=lambda c: releases.append(sim.now)
        )
        offered = 0

        def offer(count):
            nonlocal offered
            for _ in range(count):
                shaper.offer(AtmCell(vpi=0, vci=100, payload=bytes(48)))
                offered += 1

        t = 0.0
        for gap, count in batches:
            t += gap
            sim.schedule_call(t, offer, count)
        sim.run()

        assert len(releases) == offered  # unbounded queue: none dropped
        gcra = Gcra.for_rate(rate, tolerance=1e-9)
        assert all(gcra.conforms(when) for when in releases)


class TestWrrInvariants:
    """Work conservation and exact weight proportionality of the WRR
    discipline, for any queue set and any backlog."""

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.integers(0, 3)),
                st.tuples(st.just("pop"), st.just(0)),
            ),
            max_size=80,
        ),
        weights=st.lists(st.integers(1, 5), min_size=4, max_size=4),
    )
    def test_work_conservation_and_item_conservation(self, ops, weights):
        from repro.tm import WeightedRoundRobin

        wrr = WeightedRoundRobin()
        for key, weight in enumerate(weights):
            wrr.add_queue(key, weight)
        pushed = []
        popped = []
        for op, key in ops:
            if op == "push":
                item = (key, len(pushed))
                pushed.append(item)
                wrr.push(key, item)
            else:
                item = wrr.pop()
                # Work conserving: pop yields iff anything is queued.
                assert (item is None) == (
                    len(pushed) == len(popped)
                )
                if item is not None:
                    popped.append(item)
        assert len(wrr) == len(pushed) - len(popped)
        # Nothing lost, nothing duplicated, FIFO within each queue.
        remaining = []
        while len(wrr):
            remaining.append(wrr.pop())
        assert sorted(popped + remaining) == sorted(pushed)
        for key in range(len(weights)):
            served_items = [i for i in popped if i[0] == key]
            assert served_items == sorted(served_items, key=lambda i: i[1])

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        rounds=st.integers(1, 4),
    )
    def test_exact_weight_proportionality_under_backlog(self, weights, rounds):
        from repro.tm import WeightedRoundRobin

        wrr = WeightedRoundRobin()
        for key, weight in enumerate(weights):
            wrr.add_queue(key, weight)
            for i in range(weight * rounds + 3):
                wrr.push(key, (key, i))
        for _ in range(rounds * sum(weights)):
            assert wrr.pop() is not None
        # Continuous backlog: service counts follow the weights exactly.
        for key, weight in enumerate(weights):
            assert wrr.served[key] == weight * rounds


class TestCamChurnModel:
    """The LRU CAM against a reference model, for any op sequence.

    The model is a plain dict plus an explicit recency list; the CAM
    must agree with it on every lookup, never exceed capacity, never
    displace a pinned entry, and charge ``capacity_misses`` exactly for
    keys that lost their entry to eviction and were not since
    reprogrammed or removed.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["install", "remove", "lookup", "pin"]),
                st.integers(0, 7),
            ),
            max_size=60,
        ),
    )
    def test_lru_cam_matches_reference_model(self, capacity, ops):
        import pytest

        from repro.nic.cam import Cam, CamFullError

        cam = Cam(capacity, eviction="lru")
        model = {}
        recency = []  # least recent first
        pinned = set()
        evicted = set()
        expected_capacity_misses = 0

        for op, key in ops:
            if op == "install":
                if key not in model and len(model) >= capacity:
                    victim = next(
                        (k for k in recency if k not in pinned), None
                    )
                    if victim is None:
                        with pytest.raises(CamFullError):
                            cam.install(key, key * 10)
                        continue
                    del model[victim]
                    recency.remove(victim)
                    evicted.add(victim)
                cam.install(key, key * 10)
                model[key] = key * 10
                if key in recency:
                    recency.remove(key)
                recency.append(key)
                evicted.discard(key)
            elif op == "remove":
                assert cam.remove(key) == model.pop(key, None)
                if key in recency:
                    recency.remove(key)
                evicted.discard(key)
                pinned.discard(key)
            elif op == "lookup":
                assert cam.lookup(key) == model.get(key)
                if key in model:
                    recency.remove(key)
                    recency.append(key)
                elif key in evicted:
                    expected_capacity_misses += 1
            else:  # pin
                cam.pin(key)
                pinned.add(key)

            assert len(cam) == len(model) <= capacity
            assert cam.capacity_misses == expected_capacity_misses
            for k in pinned:
                if k in model:
                    assert k in cam  # pinned entries survive any churn

        assert cam.hits + cam.misses == sum(
            1 for op, _ in ops if op == "lookup"
        )

    def test_none_policy_full_cam_raises(self):
        import pytest

        from repro.nic.cam import Cam, CamFullError

        cam = Cam(2, eviction="none")
        cam.install(1, "a")
        cam.install(2, "b")
        cam.install(1, "a2")  # reprogramming an existing key is fine
        with pytest.raises(CamFullError):
            cam.install(3, "c")

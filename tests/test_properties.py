"""Property-based invariants across the kernel and the data path.

These tests drive randomised operation sequences through the core data
structures and assert the conservation laws the rest of the system
relies on: rings and FIFOs neither lose nor duplicate items, buffer
memory never goes negative, the end-to-end SAR pipeline delivers
exactly the bytes that were sent, the cells a segmenter builds from its
VC's header template are the cells the validating constructor builds,
and the kernel's two heaps fire in the order one heap would.
"""

import copy
import pickle
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aal.aal5 import AAL5_TRAILER_SIZE, Aal5Segmenter
from repro.aal.aal34 import Aal34Segmenter
from repro.atm import AtmCell, CellFormatError, PAYLOAD_SIZE
from repro.atm.addressing import VcAddress
from repro.nic import AdaptorBufferMemory, BufferMemorySpec, CellFifo
from repro.nic.descriptors import DescriptorRing
from repro.nic.sarglue import Aal5Glue, Aal34Glue
from repro.sim import Simulator
from repro.sim.core import NORMAL, URGENT, Event, Timeout
from repro.sim.process import Process


class TestStoreConservation:
    # The descriptor ring is the store between host and adaptor: it
    # holds arbitrary items (descriptors), not cells.
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.integers(0, 999)),
                st.tuples(st.just("get"), st.just(0)),
            ),
            max_size=60,
        ),
        capacity=st.integers(1, 8),
    )
    def test_items_never_lost_or_duplicated(self, ops, capacity):
        sim = Simulator()
        ring = DescriptorRing(sim, depth=capacity)
        accepted = []
        taken = []
        for op, value in ops:
            if op == "put":
                if ring.try_put(value):
                    accepted.append(value)
            else:
                item = ring.try_get()
                if item is not None:
                    taken.append(item)
        # Everything taken was accepted, in FIFO order.
        assert taken == accepted[: len(taken)]
        # Whatever remains is the un-taken tail of the accepted stream.
        remaining = []
        while (item := ring.try_get()) is not None:
            remaining.append(item)
        assert taken + remaining == accepted
        # Capacity was never exceeded.
        assert ring.peak_occupancy <= capacity


class TestCellFifoConservation:
    @settings(max_examples=50, deadline=None)
    @given(
        depth=st.integers(1, 16),
        ops=st.lists(st.sampled_from(["put", "get"]), max_size=60),
    )
    def test_in_equals_out_plus_dropped(self, depth, ops):
        # Interleaved non-blocking puts and gets: every cell is taken in
        # the order it was accepted, none is lost or duplicated, a
        # rejected put is counted as a drop, and the FIFO never holds
        # more than its depth.
        sim = Simulator()
        fifo = CellFifo(sim, depth_cells=depth)
        payload = bytes(48)
        offered = 0
        accepted = []
        taken = []
        for op in ops:
            if op == "put":
                vci = 32 + offered  # a distinct cell per put
                offered += 1
                if fifo.try_put(AtmCell(vpi=0, vci=vci, payload=payload)):
                    accepted.append(vci)
            else:
                cell = fifo.try_get()
                if cell is not None:
                    taken.append(cell.vci)
        assert taken == accepted[: len(taken)]
        remaining = []
        while (cell := fifo.try_get()) is not None:
            remaining.append(cell.vci)
        assert taken + remaining == accepted
        assert fifo.cells_in == fifo.cells_out == len(accepted)
        assert fifo.overflows.count == offered - len(accepted)
        assert fifo.peak_occupancy <= depth


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
            scenario.sender.send(scenario.vc, payload)
        sim.run(until=0.2)
        assert [c.sdu for c in scenario.received] == payloads


#: SDU lengths from empty to three AAL5 cells' worth, or the 9180-byte
#: SDU of bulk transfers (192 AAL5 cells, 209 AAL3/4 cells).
_SDU_SIZES = st.one_of(
    st.integers(0, 3 * PAYLOAD_SIZE - AAL5_TRAILER_SIZE), st.just(9180)
)


def _duplicates(cell):
    return copy.copy(cell), pickle.loads(pickle.dumps(cell))


class TestTemplateBuiltCells:
    """A segmenter checks its VC's header once and builds every cell from
    it unchecked; each cell must be the one ``AtmCell(...)`` would build."""

    @settings(max_examples=80, deadline=None)
    @given(
        vpi=st.integers(0, 0xFFF),
        vci=st.integers(0, 0xFFFF),
        size=_SDU_SIZES,
        uu=st.integers(0, 0xFF),
        glue=st.sampled_from([Aal5Glue(), Aal34Glue()]),
        stamped=st.booleans(),
    )
    @example(vpi=0xFFF, vci=0xFFFF, size=0, uu=0xFF, glue=Aal5Glue(), stamped=True)
    @example(vpi=0, vci=0, size=9180, uu=0, glue=Aal34Glue(), stamped=False)
    def test_cells_equal_the_validating_constructors(
        self, vpi, vci, size, uu, glue, stamped
    ):
        meta = {"pdu_id": 3, "posted_at": 0.25} if stamped else None
        segment = glue.segmenter_for(VcAddress(vpi, vci))
        sdu = bytes(i & 0xFF for i in range(size))
        cells = segment(sdu, uu, meta=meta)
        for cell in cells:
            checked = AtmCell(*cell[:7])
            assert type(cell) is AtmCell and type(cell.vc) is VcAddress
            assert tuple(cell) == tuple(checked)  # all ten slots
            assert cell.meta == (meta or {}) and cell.meta is not meta
            for twin in _duplicates(cell):
                assert type(twin) is AtmCell
                assert tuple(twin) == tuple(cell)
        # Each cell has its own meta, which the trace tags one by one.
        assert len({id(cell.meta) for cell in cells}) == len(cells)
        assert [glue.is_eof(cell) for cell in cells] == [
            index == len(cells) - 1 for index in range(len(cells))
        ]

    @pytest.mark.parametrize("make", [Aal5Segmenter, Aal34Segmenter])
    def test_a_plain_tuple_vc_is_carried_as_a_vc_address(self, make):
        (cell,) = make((1, 40)).segment(b"x")
        assert type(cell.vc) is VcAddress
        assert tuple(cell) == tuple(AtmCell(*cell[:7]))

    def test_every_uu_byte(self):
        segment = Aal5Glue().segmenter_for(VcAddress(1, 40))
        for uu in range(0x100):
            (cell,) = segment(b"uu", uu)
            assert tuple(cell) == tuple(AtmCell(*cell[:7]))
            assert cell.payload[-8] == uu and cell.end_of_frame

    @pytest.mark.parametrize(
        "vc",
        [
            VcAddress(-1, 40),
            VcAddress(0x1000, 40),
            VcAddress(1, -1),
            VcAddress(1, 0x10000),
        ],
        ids=["vpi-low", "vpi-high", "vci-low", "vci-high"],
    )
    @pytest.mark.parametrize(
        "make",
        [
            Aal5Segmenter,
            Aal34Segmenter,
            Aal5Glue().segmenter_for,
            Aal34Glue().segmenter_for,
        ],
        ids=["aal5", "aal34", "aal5-glue", "aal34-glue"],
    )
    def test_out_of_range_vc_refused_when_segmenter_made(
        self, monkeypatch, vc, make
    ):
        # The error comes before any cell exists: no cell is built.
        def no_cells(*args):
            raise AssertionError("a cell was built")

        monkeypatch.setattr(AtmCell, "_make", no_cells)
        monkeypatch.setattr(AtmCell, "__post_init__", no_cells)
        with pytest.raises(CellFormatError):
            make(vc)


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
            scenario.sender.send(scenario.vcs[i % 2], bytes(2000 + 137 * i))
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


class _OneHeap:
    """Reference kernel: every entry in one binary heap, the peak taken
    at every push.  Events, timeouts and processes run on it unchanged."""

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._sequence = 0
        self.events_processed = 0
        self.peak_queue_occupancy = 0

    def _push(self, when, key, fn, args):
        heappush(self._queue, (when, key, fn, args))
        self.peak_queue_occupancy = max(self.peak_queue_occupancy, len(self._queue))

    def _schedule(self, delay, event, priority=NORMAL):
        self._sequence += 1
        self._push(self._now + delay, priority + self._sequence, None, event)

    def schedule_call(self, delay, fn, *args):
        self._sequence += 1
        self._push(self._now + delay, self._sequence, fn, args)

    def _call_urgent(self, fn, *args):
        self._sequence += 1
        self._push(self._now, URGENT + self._sequence, fn, args)

    def event(self):
        return Event(self)

    def timeout(self, delay):
        return Timeout(self, delay)

    def process(self, generator):
        return Process(self, generator)

    @property
    def now(self):
        return self._now

    def step(self):
        when, _key, fn, target = heappop(self._queue)
        self._now = when
        self.events_processed += 1
        if fn is not None:
            fn(*target)
            return
        target._state = Event._PROCESSED
        callbacks, target.callbacks = target.callbacks, []
        for callback in callbacks:
            callback(target)

    def run(self, until=None):
        limit = float("inf") if until is None else until
        while self._queue and self._queue[0][0] <= limit:
            self.step()
        if until is not None:
            self._now = until

    def peek(self):
        return self._queue[0][0] if self._queue else float("inf")

    def pending_events(self):
        return len(self._queue)


#: How an entry is scheduled: a bare call, an URGENT call, a zero-delay
#: trigger, a delayed trigger, a process that sleeps.
_KINDS = ("call", "urgent", "now", "later", "sleep")
_DELAYS = st.one_of(
    st.sampled_from([0.0, 1e-6, 2.5e-6, 1e-3, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=3.0),
)


def _load(sim, program, log):
    """Queue *program* on *sim*: entry ``i`` is ``(parent, kind, delay)``
    and is scheduled when entry ``parent`` fires (-1: before the run);
    each entry logs ``(i, now)`` when it fires."""
    children = {}
    for index, (parent, kind, delay) in enumerate(program):
        children.setdefault(parent, []).append((index, kind, delay))

    def fire(index):
        log.append((index, sim.now))
        schedule(index)

    def sleeper(index, delay):
        yield sim.timeout(delay)
        fire(index)

    def schedule(parent):
        for index, kind, delay in children.get(parent, ()):
            if kind == "call":
                sim.schedule_call(delay, fire, index)
            elif kind == "urgent":
                sim._call_urgent(fire, index)
            elif kind == "sleep":
                sim.process(sleeper(index, delay))
            else:
                event = sim.event()
                event.callbacks.append(lambda _event, i=index: fire(i))
                event.trigger(delay=delay if kind == "later" else 0.0)

    schedule(-1)


def _state(sim, log):
    return (
        list(log),
        sim.now,
        sim.events_processed,
        sim.peak_queue_occupancy,
        sim.pending_events(),
        sim.peek(),
    )


class TestTwoHeapsAgainstOneHeap:
    """Bare calls, URGENT calls, triggers and process sleeps scheduled
    from inside one another: the two-heap kernel dispatches them in the
    one-heap order, and agrees on every count, for any program and any
    way of driving it."""

    @staticmethod
    def _pair(program):
        logs = ([], [])
        kernels = (Simulator(), _OneHeap())
        for kernel, log in zip(kernels, logs):
            _load(kernel, program, log)
        return kernels, logs

    programs = st.lists(
        st.tuples(st.integers(0, 1 << 16), st.sampled_from(_KINDS), _DELAYS),
        max_size=40,
    ).map(
        # An entry's parent comes before it, so every entry fires once.
        lambda specs: [
            (draw % (index + 1) - 1, kind, delay)
            for index, (draw, kind, delay) in enumerate(specs)
        ]
    )

    @settings(max_examples=150, deadline=None)
    @given(
        program=programs,
        untils=st.lists(st.floats(min_value=0.0, max_value=8.0), max_size=5),
        pick=st.integers(0, 200),
    )
    def test_run_in_chunks(self, program, untils, pick):
        # One chunk ends exactly at an entry's time.
        reference, log = _OneHeap(), []
        _load(reference, program, log)
        reference.run()
        times = [when for _index, when in log]
        if times:
            untils = untils + [times[pick % len(times)]]
        (sim, ref), (log_sim, log_ref) = self._pair(program)
        for until in sorted(untils):
            sim.run(until=until)
            ref.run(until=until)
            assert _state(sim, log_sim) == _state(ref, log_ref)
        sim.run()
        ref.run()
        assert _state(sim, log_sim) == _state(ref, log_ref)
        assert len(log_sim) == len(program)

    @settings(max_examples=100, deadline=None)
    @given(program=programs, until=st.floats(min_value=0.0, max_value=2.0))
    def test_step(self, program, until):
        (sim, ref), (log_sim, log_ref) = self._pair(program)
        sim.run(until=until)
        ref.run(until=until)
        while ref.pending_events():
            sim.step()
            ref.step()
            assert _state(sim, log_sim) == _state(ref, log_ref)
        assert sim.pending_events() == 0

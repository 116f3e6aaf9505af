"""Weighted-round-robin scheduling: discipline unit tests + NIC wiring."""

import pytest

from repro.atm import VcAddress
from repro.nic import HostNetworkInterface, aurora_oc3, connect
from repro.nic.descriptors import DescriptorRing, TxDescriptor
from repro.tm import WeightedRoundRobin, WrrTxQueue, install_wrr
from repro.workloads.generators import GreedySource


class TestDiscipline:
    def test_fifo_within_one_queue(self):
        wrr = WeightedRoundRobin()
        for i in range(5):
            wrr.push("a", i)
        assert [wrr.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_empty_pops_none(self):
        wrr = WeightedRoundRobin()
        assert wrr.pop() is None
        wrr.push("a", 1)
        assert wrr.pop() == 1
        assert wrr.pop() is None

    def test_weight_proportional_service_under_backlog(self):
        wrr = WeightedRoundRobin()
        wrr.add_queue("a", 3)
        wrr.add_queue("b", 1)
        for i in range(400):
            wrr.push("a", ("a", i))
            wrr.push("b", ("b", i))
        for _ in range(200):
            wrr.pop()
        # 200 services split 3:1 -> 150/50 exactly (both stay backlogged).
        assert wrr.served["a"] == 150
        assert wrr.served["b"] == 50

    def test_work_conserving_when_weighted_queue_idle(self):
        wrr = WeightedRoundRobin()
        wrr.add_queue("heavy", 100)
        wrr.add_queue("light", 1)
        for i in range(10):
            wrr.push("light", i)
        # "heavy" has credits but no items; "light" must still be served.
        assert [wrr.pop() for _ in range(10)] == list(range(10))

    def test_auto_registration_defaults_to_weight_one(self):
        wrr = WeightedRoundRobin()
        wrr.push("x", 1)
        assert wrr.weight_of("x") == 1

    def test_weight_update_via_re_add(self):
        wrr = WeightedRoundRobin()
        wrr.add_queue("a", 1)
        wrr.add_queue("a", 7)
        assert wrr.weight_of("a") == 7
        assert wrr.keys == ["a"]

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightedRoundRobin().add_queue("a", 0)


class TestWrrTxQueue:
    def test_waiting_consumer_is_handed_the_descriptor_in_the_pump_entry(
        self, sim
    ):
        # The consumer pulls from an empty queue; the pump takes the
        # posted descriptor off the ring, queues it, and hands it over
        # inside that same entry.
        ring = DescriptorRing(sim, depth=4)
        queue = WrrTxQueue(sim, ring)
        queue.start()
        pushes, taken = [], []
        push = queue.wrr.push

        def spied(key, item):
            pushes.append(sim.events_processed)
            push(key, item)

        queue.wrr.push = spied
        queue.pull(lambda d: taken.append((d, sim.events_processed)))
        descriptor = TxDescriptor(VcAddress(0, 40), b"x", posted_at=0.0)
        sim.schedule_call(1e-6, ring.try_put, descriptor)
        sim.run()
        assert taken == [(descriptor, pushes[0])]
        assert len(queue) == 0

    def test_ring_producers_resume_in_post_order(self, sim):
        # Six posts to a depth-2 ring: 0 and 1 go in, 2-5 wait.  The
        # pump queues each descriptor from an entry of its own, so each
        # ring pull resumes the producer it admitted before the next
        # pull is made.  A pump that pulled again inside the ring's
        # callback would resume them last admitted first (5, 4, 3, 2).
        ring = DescriptorRing(sim, depth=2)
        resumed = []
        stalled = [
            i
            for i in range(6)
            if not ring.offer(
                TxDescriptor(VcAddress(0, 40), bytes([i]), posted_at=0.0),
                resumed.append,
                i,
            )
        ]
        assert stalled == [2, 3, 4, 5]
        queue = WrrTxQueue(sim, ring)
        queue.start()
        served = []

        def serve(descriptor):
            served.append(descriptor.sdu[0])
            queue.pull(serve)

        queue.pull(serve)
        sim.run()
        assert resumed == [2, 3, 4, 5]
        assert served == [0, 1, 2, 3, 4, 5]


class TestNicIntegration:
    def test_wrr_splits_goodput_by_weight(self, sim):
        """Two backlogged VCs on one NIC share the link 3:1, not 1:1."""
        from dataclasses import replace

        from repro.atm.link import DS3_45

        # A DS3 wire keeps the host well ahead of the link, so both
        # per-VC queues stay backlogged and the split is WRR's doing.
        cfg = replace(aurora_oc3(), link=DS3_45)
        a = HostNetworkInterface(sim, cfg, name="a")
        b = HostNetworkInterface(sim, cfg, name="b")
        connect(sim, a, b)
        heavy = VcAddress(0, 40)
        light = VcAddress(0, 41)
        weights = {heavy: 3, light: 1}
        for vc in (heavy, light):
            a.open_vc(address=vc)
            b.open_vc(address=vc)
        queue = install_wrr(a, weight_of=weights.get)
        assert a.tx_engine.ring is queue

        delivered = {heavy: 0, light: 0}
        b.on_pdu = lambda pdu: delivered.__setitem__(
            pdu.vc, delivered[pdu.vc] + pdu.size
        )
        GreedySource(sim, a, heavy, 1528, name="g-heavy").start()
        GreedySource(sim, a, light, 1528, name="g-light").start()
        a.start()
        b.start()
        sim.run(until=0.02)

        assert delivered[light] > 0
        ratio = delivered[heavy] / delivered[light]
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_single_vc_throughput_unharmed(self, sim):
        """WRR in front of one VC must not slow the transmit path."""

        def goodput(with_wrr: bool) -> int:
            local = type(sim)()
            a = HostNetworkInterface(local, aurora_oc3(), name="a")
            b = HostNetworkInterface(local, aurora_oc3(), name="b")
            connect(local, a, b)
            vc = VcAddress(0, 50)
            a.open_vc(address=vc)
            b.open_vc(address=vc)
            if with_wrr:
                install_wrr(a)
            total = [0]
            b.on_pdu = lambda pdu: total.__setitem__(0, total[0] + pdu.size)
            GreedySource(local, a, vc, 4096).start()
            a.start()
            b.start()
            local.run(until=0.01)
            return total[0]

        assert goodput(True) == goodput(False)

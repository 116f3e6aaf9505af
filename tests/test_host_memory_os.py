"""Host memory management and OS cost model."""

import pytest

from repro.host import (
    Buffer,
    BufferPool,
    HostCpu,
    HostMemory,
    HostOs,
    OsCostModel,
    R3000_25MHZ,
)
from repro.host.memory import BufferChain
from repro.sim import Simulator


class TestBuffer:
    def test_write_within_capacity(self):
        buf = Buffer(1, capacity=10)
        buf.write(b"hello")
        assert buf.used == 5
        assert buf.data == b"hello"

    def test_write_overflow_rejected(self):
        with pytest.raises(ValueError):
            Buffer(1, capacity=4).write(b"hello")

    def test_append(self):
        buf = Buffer(1, capacity=10)
        buf.append(b"ab")
        buf.append(b"cd")
        assert buf.data == b"abcd"
        with pytest.raises(ValueError):
            buf.append(b"x" * 7)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            Buffer(1, capacity=-1)
        with pytest.raises(ValueError):
            Buffer(1, capacity=2, data=b"abc")


class TestBufferPool:
    def test_allocate_until_exhausted(self):
        pool = BufferPool(slot_size=100, slots=2)
        a = pool.allocate()
        b = pool.allocate()
        assert a is not None and b is not None
        assert pool.allocate() is None
        assert pool.failures == 1
        assert pool.free_slots == 0

    def test_release_recycles(self):
        pool = BufferPool(slot_size=100, slots=1)
        buf = pool.allocate()
        buf.write(b"data")
        pool.release(buf)
        again = pool.allocate()
        assert again is not None
        assert again.data == b""  # scrubbed

    def test_low_water_mark(self):
        pool = BufferPool(slot_size=10, slots=4)
        bufs = [pool.allocate() for _ in range(3)]
        for buf in bufs:
            pool.release(buf)
        assert pool.low_water == 1

    def test_over_release_rejected(self):
        pool = BufferPool(slot_size=10, slots=1)
        buf = pool.allocate()
        pool.release(buf)
        with pytest.raises(RuntimeError):
            pool.release(buf)

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferPool(slot_size=0, slots=1)


class TestHostMemory:
    def test_reserve_and_query(self):
        mem = HostMemory(total_bytes=1000)
        mem.reserve("rx", 400)
        assert mem.region_size("rx") == 400
        assert mem.available == 600

    def test_oversubscription_rejected(self):
        mem = HostMemory(total_bytes=1000)
        mem.reserve("a", 800)
        with pytest.raises(MemoryError):
            mem.reserve("b", 300)

    def test_resize_region(self):
        mem = HostMemory(total_bytes=1000)
        mem.reserve("a", 800)
        mem.reserve("a", 100)  # shrink is fine
        assert mem.reserved == 100

    def test_regions_iteration(self):
        mem = HostMemory(total_bytes=1000)
        mem.reserve("a", 1)
        mem.reserve("b", 2)
        assert dict(mem.regions()) == {"a": 1, "b": 2}


class TestBufferChain:
    def test_chain_linearises(self):
        chain = BufferChain()
        for piece in (b"ab", b"cd", b"ef"):
            buf = Buffer(1, capacity=10)
            buf.write(piece)
            chain.add(buf)
        assert chain.total_bytes == 6
        assert chain.contiguous() == b"abcdef"
        assert len(chain) == 3


class TestOsCostModel:
    def test_send_path_formula(self):
        costs = OsCostModel()
        expected = 500 + 150 + 0.75 * 1000 + 200
        assert costs.send_path_cycles(1000) == pytest.approx(expected)

    def test_zero_copy_removes_byte_term(self):
        costs = OsCostModel()
        assert costs.send_path_cycles(1000, copies=0) == pytest.approx(850)

    def test_receive_path_split_is_consistent(self):
        costs = OsCostModel()
        assert costs.receive_path_cycles(500) == pytest.approx(
            costs.driver_rx_cycles + costs.post_interrupt_receive_cycles(500)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            OsCostModel(syscall_cycles=-1)
        with pytest.raises(ValueError):
            OsCostModel(copy_cycles_per_byte=-0.5)


class TestHostOs:
    def test_send_charges_cpu(self):
        sim = Simulator()
        cpu = HostCpu(sim, R3000_25MHZ)
        os_model = HostOs(cpu)
        os_model.send_then(1000, lambda: None)
        sim.run()
        assert cpu.cycles_for("os-send") == pytest.approx(
            OsCostModel().send_path_cycles(1000)
        )
        assert os_model.pdus_sent == 1

    def test_receive_post_interrupt_excludes_driver(self):
        sim = Simulator()
        cpu = HostCpu(sim, R3000_25MHZ)
        os_model = HostOs(cpu)
        os_model.receive_post_interrupt_then(1000, lambda: None)
        sim.run()
        assert cpu.cycles_for("os-receive") == pytest.approx(
            OsCostModel().post_interrupt_receive_cycles(1000)
        )

    def test_copy_count_validation(self):
        cpu = HostCpu(Simulator(), R3000_25MHZ)
        with pytest.raises(ValueError):
            HostOs(cpu, copies_per_send=-1)

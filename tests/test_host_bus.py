"""System bus: transfer timing, bursts, arbitration fairness."""

import pytest

from repro.host import BusSpec, SystemBus, TURBOCHANNEL


class TestBusSpec:
    def test_peak_bandwidth(self):
        assert TURBOCHANNEL.peak_bandwidth_bps == pytest.approx(800e6)

    def test_words_round_up(self):
        assert TURBOCHANNEL.words_for(1) == 1
        assert TURBOCHANNEL.words_for(4) == 1
        assert TURBOCHANNEL.words_for(5) == 2
        assert TURBOCHANNEL.words_for(0) == 0

    def test_transfer_time_includes_burst_setups(self):
        # 128-word bursts, 6 setup cycles each.
        spec = TURBOCHANNEL
        one_burst = spec.transfer_time(128 * 4)
        assert one_burst == pytest.approx((128 + 6) * spec.cycle_time)
        two_bursts = spec.transfer_time(129 * 4)
        assert two_bursts == pytest.approx((129 + 12) * spec.cycle_time)

    def test_zero_bytes_is_free(self):
        assert TURBOCHANNEL.transfer_time(0) == 0.0

    def test_effective_bandwidth_below_peak(self):
        eff = TURBOCHANNEL.effective_bandwidth_bps(9180)
        assert 0 < eff < TURBOCHANNEL.peak_bandwidth_bps

    def test_effective_bandwidth_improves_with_size(self):
        assert TURBOCHANNEL.effective_bandwidth_bps(
            64
        ) < TURBOCHANNEL.effective_bandwidth_bps(8192)

    def test_validation(self):
        with pytest.raises(ValueError):
            BusSpec("bad", 0.0, 4, 6, 128)
        with pytest.raises(ValueError):
            BusSpec("bad", 1e6, 3, 6, 128)
        with pytest.raises(ValueError):
            BusSpec("bad", 1e6, 4, -1, 128)
        with pytest.raises(ValueError):
            BusSpec("bad", 1e6, 4, 6, 0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TURBOCHANNEL.words_for(-1)


class TestSystemBus:
    def test_single_transfer_duration(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        finished = []

        def master():
            yield bus.transfer(512, master="a")
            finished.append(sim.now)

        sim.process(master())
        sim.run()
        assert finished[0] == pytest.approx(TURBOCHANNEL.transfer_time(512))

    def test_two_masters_serialize(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        finished = {}

        def master(name, nbytes):
            yield bus.transfer(nbytes, master=name)
            finished[name] = sim.now

        sim.process(master("a", 512))
        sim.process(master("b", 512))
        sim.run()
        expected = TURBOCHANNEL.transfer_time(512)
        assert finished["a"] == pytest.approx(expected)
        assert finished["b"] == pytest.approx(2 * expected)

    def test_burst_interleaving_bounds_latency(self, sim):
        # A short transfer slots in between a long transfer's bursts
        # rather than waiting for the whole thing.
        bus = SystemBus(sim, TURBOCHANNEL)
        finished = {}

        def master(name, nbytes, start=0.0):
            if start:
                yield sim.timeout(start)
            yield bus.transfer(nbytes, master=name)
            finished[name] = sim.now

        long_bytes = 128 * 4 * 10  # ten bursts
        sim.process(master("long", long_bytes))
        sim.process(master("short", 64, start=1e-9))
        sim.run()
        assert finished["short"] < finished["long"]

    def test_accounting_per_master(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)

        def master(name, nbytes):
            yield bus.transfer(nbytes, master=name)

        sim.process(master("dma-tx", 1000))
        sim.process(master("dma-rx", 500))
        sim.run()
        assert bus.bytes_by_master == {"dma-tx": 1000, "dma-rx": 500}
        assert bus.bytes_moved.count == 1500
        assert bus.transactions.count == 2

    def test_utilization(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)

        def master():
            yield bus.transfer(4096)

        sim.process(master())
        sim.run()
        busy = TURBOCHANNEL.transfer_time(4096)
        assert bus.utilization(busy) == pytest.approx(1.0)
        assert bus.utilization(2 * busy) == pytest.approx(0.5)

    def test_negative_size_raises(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)

        def master():
            yield bus.transfer(-4)

        failed = sim.process(master())
        sim.run()
        assert isinstance(failed.exception, ValueError)
        assert bus.transactions.count == 0

    def test_zero_byte_transfer_completes(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        done = []

        def master():
            yield bus.transfer(0)
            done.append(True)

        sim.process(master())
        sim.run()
        assert done == [True]

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
        bus.transfer_then(512, "a", lambda: finished.append(sim.now))
        sim.run()
        assert finished[0] == pytest.approx(TURBOCHANNEL.transfer_time(512))

    def test_two_masters_serialize(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        finished = {}

        def done(name):
            finished[name] = sim.now

        bus.transfer_then(512, "a", done, "a")
        bus.transfer_then(512, "b", done, "b")
        sim.run()
        expected = TURBOCHANNEL.transfer_time(512)
        assert finished["a"] == pytest.approx(expected)
        assert finished["b"] == pytest.approx(2 * expected)

    def test_burst_interleaving_bounds_latency(self, sim):
        # A short transfer slots in between a long transfer's bursts
        # rather than waiting for the whole thing.
        bus = SystemBus(sim, TURBOCHANNEL)
        finished = {}

        def done(name):
            finished[name] = sim.now

        long_bytes = 128 * 4 * 10  # ten bursts
        bus.transfer_then(long_bytes, "long", done, "long")
        sim.schedule_call(1e-9, bus.transfer_then, 64, "short", done, "short")
        sim.run()
        assert finished["short"] < finished["long"]

    def test_a_multi_burst_transaction_rejoins_behind_a_waiting_master(
        self, sim
    ):
        # "long" is 250 words: bursts of 128 and 122.  "short" (16 words)
        # asks while the first burst holds the bus, so when that burst
        # ends "long" rejoins the queue behind it with its 122 words left.
        bus = SystemBus(sim, TURBOCHANNEL)
        finished = {}

        def done(name):
            finished[name] = sim.now

        bus.transfer_then(1000, "long", done, "long")
        bus.transfer_then(64, "short", done, "short")
        assert [entry[:3] for entry in bus._waiting] == [(16, 64, "short")]
        sim.step()  # the first burst ends; "short" holds the bus
        assert [entry[:3] for entry in bus._waiting] == [(122, 1000, "long")]
        sim.run()
        cycle = TURBOCHANNEL.cycle_time
        assert finished["short"] == pytest.approx((6 + 128 + 6 + 16) * cycle)
        assert finished["long"] == pytest.approx((6 + 128 + 6 + 16 + 6 + 122) * cycle)
        assert list(bus.bytes_by_master.items()) == [("short", 64), ("long", 1000)]
        assert bus.transactions.count == 2

    def test_accounting_per_master(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        bus.transfer_then(1000, "dma-tx", lambda: None)
        bus.transfer_then(500, "dma-rx", lambda: None)
        sim.run()
        assert bus.bytes_by_master == {"dma-tx": 1000, "dma-rx": 500}
        assert bus.bytes_moved.count == 1500
        assert bus.transactions.count == 2

    def test_utilization(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        bus.transfer_then(4096, "dma", lambda: None)
        sim.run()
        busy = TURBOCHANNEL.transfer_time(4096)
        assert bus.utilization(busy) == pytest.approx(1.0)
        assert bus.utilization(2 * busy) == pytest.approx(0.5)

    def test_negative_size_raises(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        with pytest.raises(ValueError):
            bus.transfer_then(-4, "dma", lambda: None)
        assert bus.transactions.count == 0

    def test_zero_byte_transfer_completes(self, sim):
        bus = SystemBus(sim, TURBOCHANNEL)
        done = []
        bus.transfer_then(0, "dma", done.append, True)
        sim.run()
        assert done == [True]

    def test_continuation_runs_in_the_burst_done_entry_before_the_regrant(
        self, sim
    ):
        # a's one-burst transfer ends in entry 1.  Its continuation runs
        # there, before b, waiting behind it, is granted the bus: nothing
        # is queued yet.  b's burst ends in entry 2, and b's continuation
        # runs there.
        bus = SystemBus(sim, TURBOCHANNEL)
        log = []
        burst = 128 * 4
        bus.transfer_then(
            burst,
            "a",
            lambda: log.append(("a", sim.events_processed, sim.pending_events())),
        )
        bus.transfer_then(
            burst, "b", lambda: log.append(("b", sim.events_processed, sim.now))
        )
        sim.run()
        assert log == [
            ("a", 1, 0), ("b", 2, pytest.approx(2 * TURBOCHANNEL.transfer_time(burst)))
        ]

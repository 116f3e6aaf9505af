"""Physical link timing, utilization, and loss injection."""

import pytest

from repro.atm import (
    AtmCell,
    DS3_45,
    LinkSpec,
    NoLoss,
    PhysicalLink,
    STS3C_155,
    STS12C_622,
    TAXI_100,
    UniformLoss,
)

PAYLOAD = bytes(48)


def cell(vci=100):
    return AtmCell(vpi=0, vci=vci, payload=PAYLOAD)


class TestLinkSpec:
    def test_preset_cell_times(self):
        # 424 bits at the payload rate.
        assert STS3C_155.cell_time == pytest.approx(424 / 149.76e6)
        assert STS12C_622.cell_time == pytest.approx(424 / 599.04e6)
        assert TAXI_100.cell_time == pytest.approx(424 / 100e6)

    def test_cell_rate_inverse_of_cell_time(self):
        for spec in (STS3C_155, STS12C_622, TAXI_100, DS3_45):
            assert spec.cell_rate == pytest.approx(1.0 / spec.cell_time)

    def test_effective_user_rate_is_48_of_53(self):
        assert STS3C_155.effective_user_rate_bps == pytest.approx(
            149.76e6 * 48 / 53
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", 1e6, 0.0)
        with pytest.raises(ValueError):
            LinkSpec("bad", 1e6, 2e6)


class TestSerialization:
    def test_back_to_back_cells_are_slot_spaced(self, sim):
        arrivals = []
        link = PhysicalLink(sim, STS3C_155, sink=lambda c: arrivals.append(sim.now))
        for _ in range(3):
            link.send(cell())
        sim.run()
        slot = STS3C_155.cell_time
        assert arrivals == pytest.approx([slot, 2 * slot, 3 * slot])

    def test_idle_gap_restarts_immediately(self, sim):
        arrivals = []
        link = PhysicalLink(sim, TAXI_100, sink=lambda c: arrivals.append(sim.now))

        def sender():
            link.send(cell())
            yield sim.timeout(1.0)
            link.send(cell())

        sim.process(sender())
        sim.run()
        assert arrivals[1] == pytest.approx(1.0 + TAXI_100.cell_time)

    def test_propagation_delay_added(self, sim):
        arrivals = []
        link = PhysicalLink(
            sim,
            TAXI_100,
            sink=lambda c: arrivals.append(sim.now),
            propagation_delay=0.005,
        )
        link.send(cell())
        sim.run()
        assert arrivals[0] == pytest.approx(TAXI_100.cell_time + 0.005)

    def test_send_event_fires_at_wire_out_not_delivery(self, sim):
        link = PhysicalLink(
            sim, TAXI_100, sink=lambda c: None, propagation_delay=1.0
        )
        times = []

        def sender():
            sent = sim.event()
            link.send(cell(), sent.trigger)
            yield sent
            times.append(sim.now)

        sim.process(sender())
        sim.run(until=0.5)
        assert times == [pytest.approx(TAXI_100.cell_time)]

    def test_zero_propagation_delivers_before_the_sender_resumes(self, sim):
        # One queue entry per cell: the wire-out entry delivers first,
        # then runs the sender's callback.
        log = []
        link = PhysicalLink(
            sim, TAXI_100, sink=lambda c: log.append(("delivered", sim.now))
        )

        def sender():
            sent = sim.event()
            link.send(cell(), sent.trigger)
            yield sent
            log.append(("wire-out", sim.now))

        sim.process(sender())
        sim.run()
        slot = TAXI_100.cell_time
        assert log == [("delivered", slot), ("wire-out", slot)]
        # process start, wire-out, the sender's event, process completion
        assert sim.events_processed == 4

    def test_positive_propagation_delivers_at_wire_out_plus_delay(self, sim):
        log = []
        link = PhysicalLink(
            sim,
            TAXI_100,
            sink=lambda c: log.append(("delivered", sim.now)),
            propagation_delay=2e-6,
        )

        def sender():
            sent = sim.event()
            link.send(cell(), sent.trigger)
            yield sent
            log.append(("wire-out", sim.now))

        sim.process(sender())
        sim.run()
        slot = TAXI_100.cell_time
        assert log == [("wire-out", slot), ("delivered", slot + 2e-6)]
        # process start, wire-out, the sender's event, delivery, completion
        assert sim.events_processed == 5

    def test_one_entry_per_cell_at_zero_propagation(self, sim):
        got = []
        link = PhysicalLink(sim, TAXI_100, sink=got.append)
        sent = [cell(vci=100 + i) for i in range(5)]
        for c in sent:
            link.send(c)
        sim.run()
        assert got == sent
        assert sim.events_processed == 5

    def test_utilization(self, sim):
        link = PhysicalLink(sim, TAXI_100, sink=lambda c: None)
        for _ in range(10):
            link.send(cell())
        sim.run()
        elapsed = sim.now
        assert link.utilization(elapsed) == pytest.approx(1.0)
        assert link.utilization(2 * elapsed) == pytest.approx(0.5)

    def test_backlog_time(self, sim):
        link = PhysicalLink(sim, TAXI_100, sink=lambda c: None)
        for _ in range(5):
            link.send(cell())
        assert link.backlog_time == pytest.approx(5 * TAXI_100.cell_time)

    def test_no_sink_raises_on_delivery(self, sim):
        link = PhysicalLink(sim, TAXI_100)
        link.send(cell())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_connect_replaces_sink(self, sim):
        got = []
        link = PhysicalLink(sim, TAXI_100)
        link.connect(lambda c: got.append(c))
        link.send(cell())
        sim.run()
        assert len(got) == 1

    def test_negative_propagation_rejected(self, sim):
        with pytest.raises(ValueError):
            PhysicalLink(sim, TAXI_100, propagation_delay=-1.0)


class TestLossInjection:
    def test_no_loss_default(self, sim):
        got = []
        link = PhysicalLink(sim, TAXI_100, sink=lambda c: got.append(c))
        for _ in range(20):
            link.send(cell())
        sim.run()
        assert len(got) == 20
        assert link.cells_lost.count == 0

    def test_uniform_loss_drops_fraction(self, sim, rng):
        got = []
        loss = UniformLoss(0.5, rng)
        link = PhysicalLink(sim, TAXI_100, sink=lambda c: got.append(c), loss_model=loss)
        n = 2000
        for _ in range(n):
            link.send(cell())
        sim.run()
        assert link.cells_lost.count + len(got) == n
        assert link.cells_lost.count / n == pytest.approx(0.5, abs=0.05)

    def test_total_loss(self, sim, rng):
        got = []
        link = PhysicalLink(
            sim, TAXI_100, sink=lambda c: got.append(c), loss_model=UniformLoss(1.0, rng)
        )
        for _ in range(10):
            link.send(cell())
        sim.run()
        assert got == []

    def test_lost_cells_still_occupy_wire_time(self, sim, rng):
        # Loss happens at the far end; serialization time is spent anyway.
        link = PhysicalLink(
            sim, TAXI_100, sink=lambda c: None, loss_model=UniformLoss(1.0, rng)
        )
        for _ in range(4):
            link.send(cell())
        sim.run()
        assert sim.now == pytest.approx(4 * TAXI_100.cell_time)

    def test_no_loss_model_is_reusable(self):
        model = NoLoss()
        assert not model.should_drop(cell(), 0.0)

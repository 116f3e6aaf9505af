"""Output ports, multiplexers, and the cell switch."""

import pytest

from repro.atm import (
    AtmCell,
    AtmSwitch,
    CellMultiplexer,
    OutputPort,
    PhysicalLink,
    RoutingEntry,
    TAXI_100,
    VcAddress,
)

PAYLOAD = bytes(48)


def cell(vpi=0, vci=100):
    return AtmCell(vpi=vpi, vci=vci, payload=PAYLOAD)


def make_port(sim, buffer_cells=None, sink=None):
    delivered = []
    link = PhysicalLink(
        sim, TAXI_100, sink=sink if sink is not None else delivered.append
    )
    port = OutputPort(sim, link, buffer_cells=buffer_cells)
    return port, delivered, link


class TestOutputPort:
    def test_drains_in_order(self, sim):
        port, delivered, _link = make_port(sim)
        cells = [cell(vci=100 + i) for i in range(5)]
        for c in cells:
            assert port.offer(c)
        sim.run()
        assert delivered == cells

    def test_drop_tail_when_full(self, sim):
        port, delivered, _link = make_port(sim, buffer_cells=2)
        for _ in range(10):
            port.offer(cell())
        sim.run()
        # 1 in service + 2 buffered survive.
        assert len(delivered) == 3
        assert port.dropped.count == 7
        assert port.loss_ratio == pytest.approx(7 / 10)

    def test_occupancy_statistics(self, sim):
        port, _delivered, _link = make_port(sim)
        for _ in range(6):
            port.offer(cell())
        sim.run()
        assert port.peak_occupancy == 5  # one immediately in service

    def test_drain_restarts_after_idle(self, sim):
        port, delivered, _link = make_port(sim)

        def late():
            yield sim.timeout(0.01)
            port.offer(cell())

        port.offer(cell())
        sim.process(late())
        sim.run()
        assert len(delivered) == 2

    def test_occupancy_by_vc_counts_the_queue(self, sim):
        port, _delivered, _link = make_port(sim)
        a, b = VcAddress(0, 100), VcAddress(0, 200)
        # The first cell goes straight into service; the rest queue.
        for vci in (100, 200, 100, 200, 200):
            port.offer(cell(vci=vci))
        assert port.occupancy_of(a) == 1
        assert port.occupancy_of(b) == 3
        assert port.occupancy_of(VcAddress(0, 300)) == 0
        occupancy = port.occupancy_by_vc()
        assert occupancy == {a: 1, b: 3}
        assert list(occupancy) == [b, a]  # by each VC's oldest queued cell
        sim.run()
        assert port.occupancy_by_vc() == {}

    def test_buffer_validation(self, sim):
        link = PhysicalLink(sim, TAXI_100, sink=lambda c: None)
        with pytest.raises(ValueError):
            OutputPort(sim, link, buffer_cells=0)


class TestMultiplexer:
    def test_merges_sources(self, sim):
        port, delivered, _link = make_port(sim)
        mux = CellMultiplexer(sim, port)
        for vci in (100, 200, 100, 300):
            mux.input(cell(vci=vci))
        sim.run()
        assert [c.vci for c in delivered] == [100, 200, 100, 300]
        assert mux.cells_in.count == 4

    def test_reports_drops(self, sim):
        port, _delivered, _link = make_port(sim, buffer_cells=1)
        mux = CellMultiplexer(sim, port)
        results = [mux.input(cell()) for _ in range(5)]
        assert results.count(False) == 3


class TestSwitch:
    def build(self, sim, n_out=2, fabric_delay=0.0):
        ports = []
        outputs = []
        for _ in range(n_out):
            delivered = []
            link = PhysicalLink(sim, TAXI_100, sink=delivered.append)
            ports.append(OutputPort(sim, link))
            outputs.append(delivered)
        switch = AtmSwitch(sim, ports, fabric_delay=fabric_delay)
        return switch, outputs

    def test_routing_with_translation(self, sim):
        switch, outputs = self.build(sim)
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(1, 7, 700))
        switch.receive(0, cell(vci=100))
        sim.run()
        assert len(outputs[1]) == 1
        out = outputs[1][0]
        assert (out.vpi, out.vci) == (7, 700)
        assert outputs[0] == []

    def test_same_label_route_forwards_the_received_cell(self, sim):
        switch, outputs = self.build(sim)
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(1, 0, 100))
        arriving = cell(vci=100)
        switch.receive(0, arriving)
        sim.run()
        assert len(outputs[1]) == 1
        assert outputs[1][0] is arriving

    def test_relabelling_route_builds_a_cell_sharing_meta(self, sim):
        switch, outputs = self.build(sim)
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(1, 0, 101))
        arriving = cell(vci=100)
        arriving.meta["cell_id"] = 7
        switch.receive(0, arriving)
        sim.run()
        (out,) = outputs[1]
        assert out is not arriving
        assert (out.vpi, out.vci) == (0, 101)
        assert out.payload == arriving.payload
        assert out.meta is arriving.meta

    def test_unroutable_counted_and_dropped(self, sim):
        switch, outputs = self.build(sim)
        switch.receive(0, cell(vci=999))
        sim.run()
        assert switch.cells_unroutable.count == 1
        assert outputs[0] == [] and outputs[1] == []

    def test_input_port_disambiguates(self, sim):
        switch, outputs = self.build(sim)
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(0, 0, 500))
        switch.add_route(1, VcAddress(0, 100), RoutingEntry(1, 0, 600))
        switch.input(0)(cell(vci=100))
        switch.input(1)(cell(vci=100))
        sim.run()
        assert outputs[0][0].vci == 500
        assert outputs[1][0].vci == 600

    def test_multicast_copies(self, sim):
        switch, outputs = self.build(sim)
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(0, 0, 500))
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(1, 0, 600))
        switch.receive(0, cell(vci=100))
        sim.run()
        assert len(outputs[0]) == 1 and len(outputs[1]) == 1
        assert switch.cells_switched.count == 2

    def test_fabric_delay(self, sim):
        switch, outputs = self.build(sim, fabric_delay=1e-3)
        arrival = []
        switch.output_ports[0].link.connect(lambda c: arrival.append(sim.now))
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(0, 0, 500))
        switch.receive(0, cell(vci=100))
        sim.run()
        assert arrival[0] == pytest.approx(1e-3 + TAXI_100.cell_time)

    def test_remove_routes(self, sim):
        switch, _outputs = self.build(sim)
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(0, 0, 500))
        assert switch.remove_routes(0, VcAddress(0, 100)) == 1
        assert switch.route_for(0, VcAddress(0, 100)) is None

    def test_bad_out_port_rejected(self, sim):
        switch, _outputs = self.build(sim)
        with pytest.raises(ValueError):
            switch.add_route(0, VcAddress(0, 1), RoutingEntry(5, 0, 1))

    def test_out_label_no_cell_can_carry_is_rejected(self, sim):
        # Caught when installed, not from inside the upstream link's
        # wire-out entry when the first cell is relabelled.
        switch, outputs = self.build(sim)
        for entry in (
            RoutingEntry(0, 5000, 70000),
            RoutingEntry(0, 4096, 100),
            RoutingEntry(0, 0, 65536),
            RoutingEntry(0, -1, 100),
        ):
            with pytest.raises(ValueError, match="out of range"):
                switch.add_route(0, VcAddress(0, 100), entry)
        assert switch.route_for(0, VcAddress(0, 100)) is None
        # The NNI header's own limits are fine.
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(0, 4095, 65535))
        switch.receive(0, cell(vci=100))
        sim.run()
        assert (outputs[0][0].vpi, outputs[0][0].vci) == (4095, 65535)

    def test_total_dropped_aggregates_ports(self, sim):
        delivered = []
        link = PhysicalLink(sim, TAXI_100, sink=delivered.append)
        port = OutputPort(sim, link, buffer_cells=1)
        switch = AtmSwitch(sim, [port])
        switch.add_route(0, VcAddress(0, 100), RoutingEntry(0, 0, 500))
        for _ in range(6):
            switch.receive(0, cell(vci=100))
        sim.run()
        assert switch.total_dropped == 4

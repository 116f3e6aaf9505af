"""Three senders through an ATM switch into one receiver.

Builds a small switched network: three workstations each open a VC to a
server; the switch translates VPI/VCI labels and merges the streams
onto the server's STS-3c access link (finite output buffer -> possible
cell loss under contention).  The server's receive engine reassembles
the interleaved cell streams per VC -- the working-set scenario of
experiment F6, here with a real switch instead of a synthetic wire.

Run:  python examples/multi_vc_switch.py
"""

from collections import Counter

from repro import HostNetworkInterface, Simulator, aurora_oc3
from repro.atm import AtmSwitch, OutputPort, PhysicalLink, RoutingEntry, STS3C_155
from repro.atm.addressing import VcAddress
from repro.workloads import PoissonSource, UniformSize

N_SENDERS = 3
WINDOW = 0.05


def main() -> None:
    sim = Simulator()
    config = aurora_oc3()

    # The server and its access link, fed by the switch's output port.
    server = HostNetworkInterface(sim, config, name="server")
    access_link = PhysicalLink(sim, STS3C_155, sink=server.rx_input, name="access")
    access_port = OutputPort(sim, access_link, buffer_cells=2048, name="sw-out")
    switch = AtmSwitch(sim, [access_port], fabric_delay=2e-6, name="sw")

    # Three client workstations, each on its own switch input port.
    senders = []
    for i in range(N_SENDERS):
        client = HostNetworkInterface(sim, config, name=f"client{i}")
        uplink = PhysicalLink(
            sim, STS3C_155, sink=switch.input(i), name=f"uplink{i}"
        )
        client.attach_tx_link(uplink)
        client.start()

        # Client-side VC 0/40+i maps to server-side VC 0/100+i.
        client_vc = client.open_vc(address=VcAddress(0, 40 + i))
        server_vc = VcAddress(0, 100 + i)
        server.open_vc(address=server_vc)
        switch.add_route(
            i, client_vc.address, RoutingEntry(0, server_vc.vpi, server_vc.vci)
        )
        senders.append((client, client_vc.address))

    server.start()
    per_vc = Counter()
    server.on_pdu = lambda c: per_vc.update({str(c.vc): c.size})

    # Each client offers ~32 Mb/s of mixed-size PDUs; the three flows
    # sum to ~70% of the access link's capacity, so contention shows up
    # as queueing in the switch buffer rather than loss.
    sizes = UniformSize(256, 9180)
    rate = 32e6 / (sizes.mean * 8)
    for client, vc in senders:
        PoissonSource(sim, client, vc, sizes, pdus_per_second=rate).start()

    sim.run(until=WINDOW)

    print(f"switched {switch.cells_switched.count} cells, "
          f"dropped {switch.total_dropped} at the contended output port")
    print(f"access link utilization : {access_link.utilization():.1%}")
    print(f"peak switch queue       : {access_port.peak_occupancy} cells")
    print()
    print("per-VC delivered bytes at the server:")
    for vc, nbytes in sorted(per_vc.items()):
        print(f"  VC {vc}: {nbytes:9d} bytes "
              f"({nbytes * 8 / WINDOW / 1e6:6.1f} Mb/s)")
    stats = server.stats()
    print()
    print(f"server PDUs delivered : {stats.pdus_received}")
    print(f"PDUs lost to cell loss: {stats.pdus_discarded} "
          "(three senders contend for one access link)")


if __name__ == "__main__":
    main()

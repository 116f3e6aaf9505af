"""Quickstart: two workstations with ATM host interfaces exchange PDUs.

Builds the canonical point-to-point setup -- two hosts with the paper's
offloaded NIC joined by an STS-3c link -- opens a virtual connection,
sends a handful of PDUs, and prints what the interface observed.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace quickstart-trace.json

With ``--trace``, the simulator is built inside ``repro.obs.observe()``,
so every component records into its trace recorder, and the run is
exported in Chrome ``trace_event`` format: open the file at
https://ui.perfetto.dev to see each engine, FIFO, link, DMA engine and
interrupt controller as its own swimlane (the worked walkthrough is in
docs/OBSERVABILITY.md).
"""

import argparse
import contextlib

from repro import HostNetworkInterface, Simulator, aurora_oc3, connect
from repro.obs import observe


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="export a Perfetto-loadable trace of the run to PATH",
    )
    # parse_known_args: stay runnable under test harnesses whose own
    # command line leaks into sys.argv.
    args, _ = parser.parse_known_args(argv)

    with observe() if args.trace else contextlib.nullcontext() as observation:
        sim = Simulator()
        exchange(sim)

    if observation is not None:
        recorder = observation.views[0].recorder
        recorder.export_chrome(args.trace)
        print()
        print(f"trace: {len(recorder)} events -> {args.trace} "
              f"(open at https://ui.perfetto.dev)")


def exchange(sim) -> None:
    """Five PDUs from alice to bob, then what bob's interface saw."""
    # Two workstations, each with the offloaded ATM interface.
    alice = HostNetworkInterface(sim, aurora_oc3(), name="alice")
    bob = HostNetworkInterface(sim, aurora_oc3(), name="bob")
    connect(sim, alice, bob)

    # Open a virtual connection (both ends must know it).
    vc = alice.open_vc(name="alice->bob")
    bob.open_vc(address=vc.address)

    # Receive callback: runs after reassembly, DMA, interrupt and the
    # OS receive path -- i.e. when user code would actually see data.
    def on_pdu(completion):
        latency_us = (completion.end_to_end_latency or 0.0) * 1e6
        print(
            f"[{sim.now * 1e3:7.3f} ms] bob got {completion.size:5d} bytes "
            f"on VC {completion.vc} in {completion.cells:3d} cells "
            f"(adaptor latency {latency_us:.1f} us)"
        )

    bob.on_pdu = on_pdu

    # Send a few PDUs of different sizes.
    for size in (64, 1500, 9180, 100, 40000):
        alice.send(vc.address, bytes(size))

    sim.run(until=0.05)

    stats = bob.stats()
    print()
    print(f"PDUs delivered       : {stats.pdus_received}")
    print(f"cells received       : {stats.cells_received}")
    print(f"rx engine utilization: {stats.rx_engine_utilization:.1%}")
    print(f"host CPU utilization : {stats.host_cpu_utilization:.1%}")
    print(f"interrupts delivered : {stats.interrupts_delivered} "
          f"(one per PDU, not per cell -- the offload dividend)")


if __name__ == "__main__":
    main()

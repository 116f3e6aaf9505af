"""repro: a reproduction of "A Host-Network Interface Architecture for ATM".

The package simulates the SIGCOMM '91 offloaded ATM host interface --
programmable segmentation/reassembly engines with hardware assists on a
TURBOchannel-class workstation -- together with every substrate the
evaluation needs: a discrete-event kernel, the ATM cell layer, the
adaptation layers, a host model, baselines, closed-form analysis,
workloads, and the experiment harness.

Quick start::

    from repro import Simulator, HostNetworkInterface, aurora_oc3, connect

    sim = Simulator()
    a = HostNetworkInterface(sim, aurora_oc3(), name="a")
    b = HostNetworkInterface(sim, aurora_oc3(), name="b")
    connect(sim, a, b)
    vc = a.open_vc()
    b.open_vc(address=vc.address)
    b.on_pdu = lambda c: print(f"{c.size} bytes on {c.vc}")
    a.send(vc.address, b"hello ATM world")
    sim.run(until=0.01)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced evaluation.
"""

from repro.atm import AtmCell, STS3C_155, STS12C_622, TAXI_100, VcAddress
from repro.nic import (
    HostNetworkInterface,
    NicConfig,
    aurora_oc3,
    aurora_oc12,
    connect,
    taxi_lan,
)
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "AtmCell",
    "HostNetworkInterface",
    "NicConfig",
    "STS12C_622",
    "STS3C_155",
    "Simulator",
    "TAXI_100",
    "VcAddress",
    "__version__",
    "aurora_oc12",
    "aurora_oc3",
    "connect",
    "taxi_lan",
]

"""Declarative testbed builder: say the topology, get the wiring.

Every multi-node experiment used to hand-wire the same block: links
built back-to-front so ports can hold them, switches built after their
output ports, deferred sinks for switch inputs, route tables keyed by
input-port indices the author had to track by hand.  :class:`Testbed`
replaces that with declarations::

    tb = Testbed()
    tb.add_host("s0").add_host("d")
    tb.add_switch("sw1").add_switch("sw2")
    tb.link("s0", "sw1")
    tb.link("sw1", "sw2", buffer_cells=256, port_name="bottleneck")
    tb.link("sw2", "d", port_name="p-egress")
    tb.vc(VcAddress(0, 32), ["s0", "sw1", "sw2", "d"])
    net = tb.build(sim)

``build`` returns a :class:`Scenario` holding the live objects by name
(``net.hosts["s0"]``, ``net.ports["bottleneck"]``...), with dynamic
route management (:meth:`Scenario.add_route` /
:meth:`Scenario.remove_route`) for session churn.  Observation needs no
wiring here: every component built takes its hooks from the simulator
(see :func:`repro.obs.observe`).

Determinism contract: only :class:`HostNetworkInterface` construction
touches the simulator's event-sequence numbering, and hosts are built
in declaration order -- so an experiment migrated onto Testbed with the
same host order produces byte-identical results.  Links, ports,
switches, routes, and VC opens are pure data-structure work and may be
built in any internally consistent order; switch-input sinks are
late-bound (``PhysicalLink.connect``), which is what lets cyclic
fabrics (forward *and* reverse paths through the same two switches)
be declared without a topological sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.atm.addressing import VcAddress
from repro.atm.link import LinkSpec, PhysicalLink
from repro.atm.mux import OutputPort
from repro.atm.switch import AtmSwitch, RoutingEntry
from repro.nic.config import NicConfig, aurora_oc3
from repro.nic.nic import HostNetworkInterface, connect as _connect_pair
from repro.sim.core import Simulator


@dataclass
class _HostDecl:
    name: str
    config: Optional[NicConfig]


@dataclass
class _SwitchDecl:
    name: str
    fabric_delay: float


@dataclass
class _LinkDecl:
    src: str
    dst: str
    spec: Optional[LinkSpec]
    buffer_cells: Optional[int]
    efci_threshold: Optional[int]
    clp_threshold: Optional[int]
    propagation_delay: float
    loss: Any
    name: str
    port_name: Optional[str]


@dataclass
class _ConnectDecl:
    a: str
    b: str
    spec: Optional[LinkSpec]
    propagation_delay: float
    loss_ab: Any
    loss_ba: Any


@dataclass
class _PathDecl:
    address: VcAddress
    path: Tuple[str, ...]
    open_endpoints: bool
    peak_rate_bps: Optional[float]


@dataclass
class _WorkloadDecl:
    host: str
    factory: Callable[[Simulator, HostNetworkInterface], Any]


class Scenario:
    """The live objects a :class:`Testbed` build produced, by name."""

    def __init__(self) -> None:
        self.hosts: Dict[str, HostNetworkInterface] = {}
        self.switches: Dict[str, AtmSwitch] = {}
        self.links: Dict[str, PhysicalLink] = {}
        self.ports: Dict[str, OutputPort] = {}
        self.workloads: List[Any] = []
        #: (switch, upstream-neighbour) -> the switch input index the
        #: neighbour's cells arrive on.  Route helpers consult these so
        #: callers never touch port indices.
        self._in_index: Dict[Tuple[str, str], int] = {}
        self._out_index: Dict[Tuple[str, str], int] = {}

    # -- dynamic routing (session churn) ---------------------------------

    def _hops(self, path: Sequence[str]) -> List[Tuple[str, int, int]]:
        """(switch, in_index, out_index) for each switch hop of *path*."""
        hops = []
        for prev, node, nxt in zip(path, path[1:], path[2:]):
            if node not in self.switches:
                continue
            try:
                in_idx = self._in_index[(node, prev)]
                out_idx = self._out_index[(node, nxt)]
            except KeyError as exc:
                raise KeyError(
                    f"no declared link through switch {node!r} "
                    f"for hop {prev!r}->{node!r}->{nxt!r}"
                ) from exc
            hops.append((node, in_idx, out_idx))
        return hops

    def add_route(self, address: VcAddress, path: Sequence[str]) -> None:
        """Install *address*'s routes along *path* (hosts at the ends)."""
        for node, in_idx, out_idx in self._hops(path):
            self.switches[node].add_route(
                in_idx, address, RoutingEntry(out_idx, address.vpi, address.vci)
            )

    def remove_route(self, address: VcAddress, path: Sequence[str]) -> None:
        """Tear down what :meth:`add_route` installed (RELEASE time)."""
        for node, in_idx, _out_idx in self._hops(path):
            self.switches[node].remove_routes(in_idx, address)


class Testbed:
    """Collects topology declarations; :meth:`build` wires them up.

    All declaration methods return ``self`` for chaining.  Names must
    be unique across hosts and switches.
    """

    def __init__(self, default_config: Optional[NicConfig] = None) -> None:
        self.default_config = default_config
        self._hosts: List[_HostDecl] = []
        self._switches: List[_SwitchDecl] = []
        self._links: List[_LinkDecl] = []
        self._connects: List[_ConnectDecl] = []
        self._paths: List[_PathDecl] = []
        self._workloads: List[_WorkloadDecl] = []
        self._names: Dict[str, str] = {}  # name -> "host" | "switch"

    # -- declarations -----------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate node name {name!r}")
        self._names[name] = kind

    def add_host(
        self, name: str, config: Optional[NicConfig] = None
    ) -> "Testbed":
        """Declare a host interface (built in declaration order)."""
        self._claim(name, "host")
        self._hosts.append(_HostDecl(name, config))
        return self

    def add_switch(self, name: str, fabric_delay: float = 0.0) -> "Testbed":
        """Declare an ATM switch."""
        self._claim(name, "switch")
        self._switches.append(_SwitchDecl(name, fabric_delay))
        return self

    def link(
        self,
        src: str,
        dst: str,
        *,
        spec: Optional[LinkSpec] = None,
        buffer_cells: Optional[int] = None,
        efci_threshold: Optional[int] = None,
        clp_threshold: Optional[int] = None,
        propagation_delay: float = 0.0,
        loss: Any = None,
        name: Optional[str] = None,
        port_name: Optional[str] = None,
    ) -> "Testbed":
        """Declare a unidirectional link from *src* to *dst*.

        A switch-sourced link gets an :class:`OutputPort` in front of it
        (``buffer_cells`` / ``efci_threshold`` / ``clp_threshold``
        configure that port); a host-sourced link becomes the host's
        transmit link.  The default link name is ``"src->dst"``, the
        convention the hand-wired experiments already used.
        """
        for node in (src, dst):
            if node not in self._names:
                raise ValueError(f"unknown node {node!r} in link()")
        if self._names[src] == "host" and any(
            ld.src == src for ld in self._links
        ):
            raise ValueError(f"host {src!r} already has a transmit link")
        self._links.append(
            _LinkDecl(
                src=src,
                dst=dst,
                spec=spec,
                buffer_cells=buffer_cells,
                efci_threshold=efci_threshold,
                clp_threshold=clp_threshold,
                propagation_delay=propagation_delay,
                loss=loss,
                name=name or f"{src}->{dst}",
                port_name=port_name,
            )
        )
        return self

    def connect(
        self,
        a: str,
        b: str,
        *,
        spec: Optional[LinkSpec] = None,
        propagation_delay: float = 0.0,
        loss_ab: Any = None,
        loss_ba: Any = None,
    ) -> "Testbed":
        """Declare a host-to-host duplex pair (built via ``nic.connect``).

        Mirrors :func:`repro.nic.nic.connect`, including its side effect
        of starting both interfaces; the pair lands in
        ``Scenario.links`` as ``"a->b"`` and ``"b->a"``.
        """
        for node in (a, b):
            if self._names.get(node) != "host":
                raise ValueError(f"connect() joins hosts; {node!r} is not one")
        self._connects.append(
            _ConnectDecl(a, b, spec, propagation_delay, loss_ab, loss_ba)
        )
        return self

    def vc(
        self,
        address: VcAddress,
        path: Sequence[str],
        *,
        peak_rate_bps: Optional[float] = None,
    ) -> "Testbed":
        """Declare a VC: open at both end hosts, route at each switch.

        The first host opens with *peak_rate_bps* (the sender's traffic
        contract; None means unshaped), the last host opens plain.
        """
        self._check_path(path, endpoints_are_hosts=True)
        self._paths.append(
            _PathDecl(address, tuple(path), True, peak_rate_bps)
        )
        return self

    def route(self, address: VcAddress, path: Sequence[str]) -> "Testbed":
        """Declare routes only (no VC open) -- e.g. an RM return path."""
        self._check_path(path, endpoints_are_hosts=False)
        self._paths.append(_PathDecl(address, tuple(path), False, None))
        return self

    def workload(
        self,
        host: str,
        factory: Callable[[Simulator, HostNetworkInterface], Any],
    ) -> "Testbed":
        """Declare a workload: ``factory(sim, nic)`` runs after wiring."""
        if self._names.get(host) != "host":
            raise ValueError(f"workload() needs a host; {host!r} is not one")
        self._workloads.append(_WorkloadDecl(host, factory))
        return self

    def _check_path(
        self, path: Sequence[str], endpoints_are_hosts: bool
    ) -> None:
        if len(path) < 2:
            raise ValueError("a path needs at least two nodes")
        for node in path:
            if node not in self._names:
                raise ValueError(f"unknown node {node!r} in path")
        if endpoints_are_hosts:
            for node in (path[0], path[-1]):
                if self._names[node] != "host":
                    raise ValueError(
                        f"vc() path must start and end at hosts, not {node!r}"
                    )
        for src, dst in zip(path, path[1:]):
            if not self._has_link(src, dst):
                raise ValueError(f"path hop {src!r}->{dst!r} has no link")

    def _has_link(self, src: str, dst: str) -> bool:
        if any(ld.src == src and ld.dst == dst for ld in self._links):
            return True
        return any(
            (cd.a == src and cd.b == dst) or (cd.b == src and cd.a == dst)
            for cd in self._connects
        )

    # -- realisation ------------------------------------------------------

    def build(self, sim: Simulator) -> Scenario:
        """Wire the declared topology into *sim* and return it live."""
        net = Scenario()

        # Hosts first, in declaration order: the one build step whose
        # order is visible in the event-sequence numbering.
        for hd in self._hosts:
            config = hd.config or self.default_config or aurora_oc3()
            net.hosts[hd.name] = HostNetworkInterface(
                sim, config, name=hd.name
            )

        # Links (and the ports in front of switch-sourced ones).  Sinks
        # into switches stay unbound until the switches exist.
        out_ports: Dict[str, List[OutputPort]] = {
            sd.name: [] for sd in self._switches
        }
        pending_sinks: List[Tuple[PhysicalLink, str, str]] = []
        for ld in self._links:
            spec = ld.spec or self._spec_near(ld, net)
            dst_is_switch = self._names[ld.dst] == "switch"
            sink = None if dst_is_switch else net.hosts[ld.dst].rx_input
            link = PhysicalLink(
                sim,
                spec,
                sink=sink,
                propagation_delay=ld.propagation_delay,
                loss_model=ld.loss,
                name=ld.name,
            )
            if ld.name in net.links:
                raise ValueError(f"duplicate link name {ld.name!r}")
            net.links[ld.name] = link
            if dst_is_switch:
                pending_sinks.append((link, ld.dst, ld.src))
            if self._names[ld.src] == "switch":
                port_name = ld.port_name or f"p:{ld.name}"
                port = OutputPort(
                    sim,
                    link,
                    buffer_cells=ld.buffer_cells,
                    name=port_name,
                    efci_threshold=ld.efci_threshold,
                    clp_threshold=ld.clp_threshold,
                )
                net._out_index[(ld.src, ld.dst)] = len(out_ports[ld.src])
                out_ports[ld.src].append(port)
                if port_name in net.ports:
                    raise ValueError(f"duplicate port name {port_name!r}")
                net.ports[port_name] = port
            else:
                net.hosts[ld.src].attach_tx_link(link)

        for sd in self._switches:
            net.switches[sd.name] = AtmSwitch(
                sim,
                out_ports[sd.name],
                fabric_delay=sd.fabric_delay,
                name=sd.name,
            )

        # Late-bind the switch-input sinks, assigning input indices per
        # switch in link-declaration order.
        next_in: Dict[str, int] = {sd.name: 0 for sd in self._switches}
        for link, sw_name, src_name in pending_sinks:
            idx = next_in[sw_name]
            next_in[sw_name] += 1
            net._in_index[(sw_name, src_name)] = idx
            link.connect(net.switches[sw_name].input(idx))

        # Host-to-host duplex pairs (starts both ends, like nic.connect
        # always has).
        for cd in self._connects:
            ab, ba = _connect_pair(
                sim,
                net.hosts[cd.a],
                net.hosts[cd.b],
                link=cd.spec,
                propagation_delay=cd.propagation_delay,
                loss_ab=cd.loss_ab,
                loss_ba=cd.loss_ba,
            )
            net.links[ab.name] = ab
            net.links[ba.name] = ba

        # VCs and routes, in one declaration-ordered pass.
        for pd in self._paths:
            net.add_route(pd.address, pd.path)
            if pd.open_endpoints:
                net.hosts[pd.path[0]].open_vc(
                    address=pd.address, peak_rate_bps=pd.peak_rate_bps
                )
                net.hosts[pd.path[-1]].open_vc(address=pd.address)

        for wd in self._workloads:
            net.workloads.append(wd.factory(sim, net.hosts[wd.host]))

        return net

    def _spec_near(self, ld: _LinkDecl, net: Scenario) -> LinkSpec:
        """Default link spec: the nearest host's configured link."""
        for node in (ld.src, ld.dst):
            if self._names[node] == "host":
                return net.hosts[node].config.link
        if self._hosts:
            return net.hosts[self._hosts[0].name].config.link
        return aurora_oc3().link

"""A small output-queued ATM switch.

Enough switch to build multi-hop test networks for the host interface:
per-(input port, VPI/VCI) routing entries with header translation, a
fixed fabric transit delay, and output ports with finite buffers (loss
under congestion).  Cell copying for point-to-multipoint entries is
supported because the era's host-interface experiments frequently ran
over multicast switch fabrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.atm.addressing import VcAddress
from repro.atm.cell import AtmCell
from repro.atm.mux import OutputPort
from repro.sim.core import Simulator
from repro.sim.monitor import Counter


@dataclass(frozen=True)
class RoutingEntry:
    """Forwarding instruction: where a VC's cells leave, with new labels."""

    out_port: int
    out_vpi: int
    out_vci: int


class _InputAdapter:
    """Binds a physical input port number to the switch's receive path.

    ``receive_cell`` is ``switch.receive`` with the port bound, so a
    link that resolves its sink's ``receive_cell`` when connected hands
    each cell to :meth:`AtmSwitch.receive` with no frame in between.
    """

    def __init__(self, switch: "AtmSwitch", port: int) -> None:
        self.switch = switch
        self.port = port
        self.receive_cell: Callable[[AtmCell], None] = partial(
            switch.receive, port
        )

    def __call__(self, cell: AtmCell) -> None:
        self.switch.receive(self.port, cell)


class AtmSwitch:
    """Output-queued switch with VPI/VCI translation.

    Construction wires output ports; input ports are implicit -- attach
    ``switch.input(port_no)`` as the sink of an upstream link.  Routing is
    per (input port, VPI, VCI); unknown cells are counted and discarded,
    which is precisely what real fabrics do with misrouted cells.
    """

    def __init__(
        self,
        sim: Simulator,
        output_ports: List[OutputPort],
        fabric_delay: float = 0.0,
        name: str = "switch",
    ) -> None:
        if fabric_delay < 0:
            raise ValueError("fabric delay must be >= 0")
        self.sim = sim
        self.output_ports = output_ports
        self.fabric_delay = fabric_delay
        self.name = name
        #: (input port, VC) -> [(entry, whether it relabels)].
        self._routes: Dict[Tuple[int, VcAddress], List[tuple]] = {}
        self.cells_switched = Counter(f"{name}.switched")
        self.cells_unroutable = Counter(f"{name}.unroutable")
        #: Traffic-management hook (repro.tm.erica): an object with an
        #: ``on_cell(port, cell) -> cell`` method sees every transiting
        #: cell after translation and may substitute it (ER stamping).
        self.tm = None
        sim.components.append(self)

    def input(self, port: int) -> _InputAdapter:
        """A cell sink representing input port *port*."""
        if port < 0:
            raise ValueError("port numbers are non-negative")
        return _InputAdapter(self, port)

    def add_route(
        self,
        in_port: int,
        in_address: VcAddress,
        entry: RoutingEntry,
    ) -> None:
        """Install a forwarding entry; repeated adds build multicast sets.

        The outgoing label is checked here against the limits a cell
        header can carry (NNI), so a bad entry fails when installed,
        not when its first cell is relabelled; whether it relabels at
        all is decided here too.
        """
        if not 0 <= entry.out_port < len(self.output_ports):
            raise ValueError(
                f"out_port {entry.out_port} outside 0..{len(self.output_ports) - 1}"
            )
        out_address = VcAddress.validated(entry.out_vpi, entry.out_vci, nni=True)
        self._routes.setdefault((in_port, in_address), []).append(
            (entry, out_address != in_address)
        )

    def remove_routes(self, in_port: int, in_address: VcAddress) -> int:
        """Drop every entry for the given input VC; returns how many.

        Each entry's output port forgets the outgoing VC's per-VC
        tallies, so they live as long as the route.
        """
        entries = self._routes.pop((in_port, in_address), [])
        for entry, _ in entries:
            self.output_ports[entry.out_port].forget(
                VcAddress(entry.out_vpi, entry.out_vci)
            )
        return len(entries)

    def route_for(
        self, in_port: int, in_address: VcAddress
    ) -> Optional[List[RoutingEntry]]:
        entries = self._routes.get((in_port, in_address))
        return None if entries is None else [entry for entry, _ in entries]

    def receive(self, in_port: int, cell: AtmCell) -> None:
        """Cell arrival on *in_port*: translate, transit fabric, enqueue.

        Cells are immutable, so an entry that keeps the label hands on
        the received cell; only a relabelling entry builds a new one.
        """
        entries = self._routes.get((in_port, cell.vc))
        if not entries:
            self.cells_unroutable.increment()
            return
        for entry, relabels in entries:
            translated = cell
            if relabels:
                translated = cell.with_header(vpi=entry.out_vpi, vci=entry.out_vci)
            self.cells_switched.count += 1
            if self.tm is not None:
                translated = self.tm.on_cell(
                    self.output_ports[entry.out_port], translated
                )
            if self.fabric_delay > 0:
                self.sim.schedule_call(
                    self.fabric_delay,
                    self.output_ports[entry.out_port].offer,
                    translated,
                )
            else:
                self.output_ports[entry.out_port].offer(translated)

    @property
    def total_dropped(self) -> int:
        return sum(port.dropped.count for port in self.output_ports)

"""Canned end-to-end testbeds used by several experiments.

- :func:`build_point_to_point` -- the workhorse: two interfaces, a link
  pair, one or more VCs, and a receive-side PDU log.
- :class:`InterleavedCellSource` -- a synthetic wire feeding a receive
  path with cells from many VCs round-robin at link rate, the worst
  case for reassembly-context locality (experiment F6).  A single real
  transmitter cannot produce this pattern (it finishes one PDU before
  the next), but a switch merging many senders does -- this source
  stands in for that switch fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.aal.aal5 import Aal5Segmenter
from repro.atm.addressing import VcAddress
from repro.atm.cell import AtmCell
from repro.atm.errors import LossModel
from repro.atm.link import LinkSpec, PhysicalLink
from repro.nic.config import NicConfig
from repro.nic.descriptors import RxCompletion
from repro.nic.nic import HostNetworkInterface, connect
from repro.sim.core import Simulator
from repro.sim.monitor import Counter
from repro.workloads.generators import make_payload


@dataclass
class PointToPoint:
    """A sender/receiver pair joined by a link, plus observation hooks."""

    sim: Simulator
    sender: HostNetworkInterface
    receiver: HostNetworkInterface
    vcs: List[VcAddress]
    link_ab: PhysicalLink
    link_ba: PhysicalLink
    received: List[RxCompletion] = field(default_factory=list)

    @property
    def vc(self) -> VcAddress:
        """The first (often only) VC."""
        return self.vcs[0]

    def received_bytes(self) -> int:
        return sum(c.size for c in self.received)

    def goodput_mbps(self, window: Optional[float] = None) -> float:
        """Delivered user bits over elapsed (or given) time."""
        span = self.sim.now if window is None else window
        return (self.received_bytes() * 8 / span) / 1e6 if span > 0 else 0.0


def build_point_to_point(
    sim: Simulator,
    config: NicConfig,
    n_vcs: int = 1,
    propagation_delay: float = 0.0,
    loss_ab: Optional[LossModel] = None,
    link: Optional[LinkSpec] = None,
) -> PointToPoint:
    """Wire a complete sender/receiver testbed and open *n_vcs* VCs."""
    if n_vcs < 1:
        raise ValueError("need at least one VC")
    sender = HostNetworkInterface(sim, config, name="sender")
    receiver = HostNetworkInterface(sim, config, name="receiver")
    ab, ba = connect(
        sim,
        sender,
        receiver,
        link=link,
        propagation_delay=propagation_delay,
        loss_ab=loss_ab,
    )
    vcs = []
    for _ in range(n_vcs):
        vc = sender.open_vc()
        receiver.open_vc(address=vc.address)
        vcs.append(vc.address)
    scenario = PointToPoint(
        sim=sim,
        sender=sender,
        receiver=receiver,
        vcs=vcs,
        link_ab=ab,
        link_ba=ba,
    )
    receiver.on_pdu = scenario.received.append
    return scenario


class InterleavedCellSource:
    """Feeds a receive path with round-robin interleaved VC streams.

    Each of *n_vcs* streams carries back-to-back PDUs of *sdu_size*
    bytes; the wire emits one cell per link slot, rotating across the
    streams.  With N streams, every stream's reassembly context is
    touched every N cells -- the working-set stress the CAM and the
    context table exist for.
    """

    def __init__(
        self,
        sim: Simulator,
        sink,
        link: LinkSpec,
        n_vcs: int,
        sdu_size: int,
        base_vci: int = 100,
        blocking_fifo=None,
        name: str = "interleave",
    ) -> None:
        if n_vcs < 1:
            raise ValueError("need at least one VC")
        if sdu_size < 1:
            raise ValueError("SDU size must be positive")
        self.sim = sim
        self.sink = sink
        self.link = link
        #: When set (a CellFifo), the source delivers with a *blocking*
        #: put -- modelling upstream buffering/backpressure so the
        #: receiver's sustainable rate is measured instead of its
        #: overload collapse.
        self.blocking_fifo = blocking_fifo
        self.n_vcs = n_vcs
        self.sdu_size = sdu_size
        self.name = name
        self.vcs = [VcAddress(0, base_vci + i) for i in range(n_vcs)]
        self._queues: List[List[AtmCell]] = [[] for _ in range(n_vcs)]
        self._segmenters = [Aal5Segmenter(vc) for vc in self.vcs]
        self.cells_emitted = Counter(f"{name}.cells")
        self.pdus_emitted = Counter(f"{name}.pdus")
        self._process = None

    def start(self):
        """Launch the wire process (idempotent); returns the process."""
        if self._process is None:
            self._process = self.sim.process(self._run())
        return self._process

    def _refill(self, stream: int) -> None:
        payload = make_payload(self.sdu_size)
        self._queues[stream] = self._segmenters[stream].segment(payload)
        self.pdus_emitted.increment()

    def _run(self):
        stream = 0
        while True:
            if not self._queues[stream]:
                self._refill(stream)
            cell = self._queues[stream].pop(0)
            if self.blocking_fifo is not None:
                yield self.blocking_fifo.put(cell)
            else:
                receive = getattr(self.sink, "receive_cell", None)
                if receive is not None:
                    receive(cell)
                else:
                    self.sink(cell)
            self.cells_emitted.increment()
            stream = (stream + 1) % self.n_vcs
            yield self.sim.timeout(self.link.cell_time)

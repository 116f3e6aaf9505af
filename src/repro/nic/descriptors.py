"""Descriptor rings: the host/adaptor contract.

The host and the adaptor communicate through two rings in host memory:

- the **transmit ring** of :class:`TxDescriptor` -- "here is a PDU,
  send it on this VC";
- the **completion ring** of :class:`RxCompletion` -- "a PDU for this
  VC has landed in that buffer".

Ring depth bounds how far the host can run ahead of the adaptor (and
vice versa); a full TX ring back-pressures the sender, which is the
flow-control boundary of the whole architecture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.atm.addressing import VcAddress
from repro.host.memory import Buffer
from repro.sim.core import Simulator
from repro.sim.resources import Store

_pdu_ids = itertools.count(1)


@dataclass
class TxDescriptor:
    """One host-posted transmit request."""

    vc: VcAddress
    sdu: bytes
    posted_at: float
    pdu_id: int = field(default_factory=lambda: next(_pdu_ids))
    #: AAL5 CPCS-UU byte passed through to the far end.
    user_indication: int = 0

    @property
    def size(self) -> int:
        return len(self.sdu)


@dataclass
class RxCompletion:
    """One adaptor-posted receive completion."""

    vc: VcAddress
    sdu: bytes
    buffer: Optional[Buffer]
    received_at: float  #: when the final cell's processing finished
    delivered_at: float  #: when the host buffer held the full PDU
    cells: int
    user_indication: int = 0
    #: When the sender posted the PDU (carried in cell metadata); lets
    #: experiments compute end-to-end latency without a side channel.
    posted_at: Optional[float] = None

    @property
    def size(self) -> int:
        return len(self.sdu)

    @property
    def end_to_end_latency(self) -> Optional[float]:
        if self.posted_at is None:
            return None
        return self.delivered_at - self.posted_at


class DescriptorRing(Store):
    """A bounded FIFO ring of descriptors between host and adaptor.

    The producer/consumer behaviour of a hardware ring with a full bit:
    the host posts with ``offer(descriptor, resume, *args)``, which
    waits (and later calls ``resume``) while the ring is full, and the
    transmit engine takes with ``pull(consumer)``, like
    :meth:`~repro.nic.fifo.CellFifo.pull`: a queued descriptor is taken
    at once, and a post to an empty ring hands the descriptor straight
    to the waiting engine, inside the posting entry.  ``take`` is the
    same pull as an event, for processes.
    """

    def __init__(self, sim: Simulator, depth: int, name: str = "ring") -> None:
        if depth < 1:
            raise ValueError("ring depth must be >= 1")
        super().__init__(sim, capacity=depth, name=name)
        self.depth = depth

    try_post = Store.try_put
    take = Store.get

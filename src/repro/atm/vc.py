"""Virtual connections and the per-link VC table.

A :class:`VirtualConnection` carries the contract a connection was opened
with (service class, AAL type, peak rate); the :class:`VcTable` is the
lookup structure every ATM component keys cells against.  The host
interface's receive path consults an equivalent table through its CAM
model (:mod:`repro.nic.cam`); this pure-Python table is the functional
ground truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.atm.addressing import MAX_VCI, RESERVED_VCI_LIMIT, VcAddress


class ServiceClass(enum.Enum):
    """1991-era service classes (I.362 classes A-D, pre-ATM-Forum names)."""

    CBR = "cbr"  #: class A: constant bit rate, circuit emulation
    VBR = "vbr"  #: class B/C: variable bit rate
    DATA = "data"  #: class C/D: connection-oriented / connectionless data
    BEST_EFFORT = "best-effort"  #: what later became UBR


class AalType(enum.Enum):
    """Adaptation layer carried on the VC."""

    AAL0 = "aal0"  #: raw cells, no adaptation
    AAL1 = "aal1"  #: circuit emulation (not exercised by the NIC paths)
    AAL34 = "aal3/4"
    AAL5 = "aal5"


class VcState(enum.Enum):
    OPENING = "opening"
    OPEN = "open"
    CLOSING = "closing"
    CLOSED = "closed"


@dataclass
class VirtualConnection:
    """One open virtual channel and its traffic contract."""

    address: VcAddress
    service_class: ServiceClass = ServiceClass.DATA
    aal: AalType = AalType.AAL5
    peak_rate_bps: Optional[float] = None
    name: str = ""
    state: VcState = VcState.OPEN

    def __post_init__(self) -> None:
        if self.peak_rate_bps is not None and self.peak_rate_bps <= 0:
            raise ValueError("peak rate must be positive when given")
        if not self.name:
            self.name = f"vc-{self.address}"

    @property
    def is_open(self) -> bool:
        return self.state is VcState.OPEN


class VcTable:
    """The set of open VCs on one link endpoint.

    Supports explicit addressing (``open(address=...)``) and automatic
    VCI allocation from the non-reserved space, which is what host
    software normally wants.
    """

    def __init__(self, nni: bool = False) -> None:
        self.nni = nni
        self._table: Dict[VcAddress, VirtualConnection] = {}
        self._next_vci = RESERVED_VCI_LIMIT

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, address: VcAddress) -> bool:
        return address in self._table

    def __iter__(self) -> Iterator[VirtualConnection]:
        return iter(self._table.values())

    def open(
        self,
        address: Optional[VcAddress] = None,
        service_class: ServiceClass = ServiceClass.DATA,
        aal: AalType = AalType.AAL5,
        peak_rate_bps: Optional[float] = None,
        name: str = "",
    ) -> VirtualConnection:
        """Open a VC, allocating a VCI on VPI 0 when *address* is None."""
        if address is None:
            address = self._allocate_address()
        else:
            address = VcAddress.validated(*address, nni=self.nni)
            if address.is_reserved:
                raise ValueError(f"address {address} is in the reserved range")
        if address in self._table:
            raise ValueError(f"VC {address} already open")
        vc = VirtualConnection(
            address=address,
            service_class=service_class,
            aal=aal,
            peak_rate_bps=peak_rate_bps,
            name=name,
        )
        self._table[address] = vc
        return vc

    def open_reserved(
        self,
        address: VcAddress,
        service_class: ServiceClass = ServiceClass.DATA,
        name: str = "",
    ) -> VirtualConnection:
        """Open a system channel in the reserved range (signalling, OAM).

        User code should use :meth:`open`; this entry point exists for
        the well-known channels the reserved range is reserved *for*.
        """
        if not address.is_reserved:
            raise ValueError(f"{address} is not in the reserved range")
        if address in self._table:
            raise ValueError(f"VC {address} already open")
        vc = VirtualConnection(
            address=address, service_class=service_class, name=name
        )
        self._table[address] = vc
        return vc

    def close(self, address: VcAddress) -> VirtualConnection:
        """Close and remove the VC at *address*."""
        vc = self._table.pop(address, None)
        if vc is None:
            raise KeyError(f"VC {address} is not open")
        vc.state = VcState.CLOSED
        return vc

    def lookup(self, address: VcAddress) -> Optional[VirtualConnection]:
        """The open VC at *address*, or None (misdelivered cell)."""
        return self._table.get(address)

    def _allocate_address(self) -> VcAddress:
        """Next free VCI on VPI 0, wrapping around the allocatable space.

        The cursor keeps moving forward (so freshly closed VCIs are not
        reused immediately -- stale cells in flight would misdeliver)
        but wraps at :data:`MAX_VCI`, which a session churning thousands
        of connections needs: the space is finite, the churn is not.
        """
        span = MAX_VCI - RESERVED_VCI_LIMIT + 1
        for _ in range(span):
            vci = self._next_vci
            self._next_vci += 1
            if self._next_vci > MAX_VCI:
                self._next_vci = RESERVED_VCI_LIMIT
            candidate = VcAddress(0, vci)
            if candidate not in self._table:
                return candidate
        raise RuntimeError("VCI space exhausted")

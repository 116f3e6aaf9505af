"""Common service interface and error taxonomy for the adaptation layers.

Both AALs expose the same shape: a *segmenter* turning service data units
(SDUs) into cells, and a *reassembler* consuming cells and emitting
:class:`SduIndication` records.  The failure taxonomy is shared so the
NIC, baselines and experiments can aggregate errors uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.atm.addressing import VcAddress


class AalError(Exception):
    """Raised for misuse of the adaptation layer API (not wire errors)."""


class ReassemblyFailure(enum.Enum):
    """Why a partially or fully received PDU was discarded."""

    CRC = "crc"  #: trailer CRC mismatch (corruption or undetected loss)
    LENGTH = "length"  #: trailer length field disagrees with bytes received
    SEQUENCE = "sequence"  #: AAL3/4 SN discontinuity
    TAG_MISMATCH = "tag-mismatch"  #: AAL3/4 BTag != ETag
    PROTOCOL = "protocol"  #: segment-type violation (COM before BOM, ...)
    OVERSIZE = "oversize"  #: PDU exceeded the maximum reassembly size
    TIMEOUT = "timeout"  #: reassembly timer expired on a partial PDU
    QUOTA = "quota"  #: context evicted to stay within the context quota


@dataclass
class ReassemblyStats:
    """Aggregate reassembly accounting for one endpoint.

    Cell conservation: every consumed cell ends in exactly one of
    *cells_delivered* (it rode a delivered PDU), *cells_discarded_by*
    (itemised by the failure that killed its PDU), *cells_orphaned*
    (never attributable to a context -- SAR decode failures, COM/EOM
    with no open PDU), or a still-open context.  The auditor in
    :mod:`repro.faults.audit` reconciles against this invariant.
    """

    pdus_delivered: int = 0
    pdus_discarded: int = 0
    cells_consumed: int = 0
    cells_delivered: int = 0
    cells_orphaned: int = 0
    bytes_delivered: int = 0
    failures: dict = field(default_factory=dict)
    #: Cells lost with their PDU, itemised by failure cause.
    cells_discarded_by: dict = field(default_factory=dict)

    def count_failure(self, why: ReassemblyFailure, cells: int = 0) -> None:
        self.pdus_discarded += 1
        self.failures[why] = self.failures.get(why, 0) + 1
        if cells:
            self.count_discarded_cells(why, cells)

    def count_discarded_cells(self, why: ReassemblyFailure, cells: int) -> None:
        """Attribute cells to an already-counted failure (late disposition)."""
        self.cells_discarded_by[why] = self.cells_discarded_by.get(why, 0) + cells

    def failure_count(self, why: ReassemblyFailure) -> int:
        return self.failures.get(why, 0)

    @property
    def cells_discarded(self) -> int:
        return sum(self.cells_discarded_by.values())


@dataclass
class SduIndication:
    """One reassembled SDU handed up to the AAL user."""

    vc: VcAddress
    sdu: bytes
    cells: int  #: how many cells carried it
    completed_at: float  #: simulation time of the last cell
    mid: Optional[int] = None  #: AAL3/4 multiplexing id, None for AAL5
    user_indication: int = 0  #: AAL5 CPCS-UU byte

    @property
    def size(self) -> int:
        return len(self.sdu)

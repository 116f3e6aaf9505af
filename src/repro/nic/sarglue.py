"""SAR glue: one interface over the two adaptation layers.

The protocol engines are agnostic about *which* adaptation layer they
run -- precisely the paper's argument for programmable engines (the
AALs were still in committee in 1991; AAL3/4 was the standard, the
simple-and-efficient layer that became AAL5 was the proposal).  This
module gives the engines a single surface:

- :class:`Aal5Glue` -- zero per-cell overhead, EOF in the PTI bit;
- :class:`Aal34Glue` -- 4 bytes per cell of SAR header/trailer, EOF in
  the segment-type field, 44-byte payloads.

The glue also carries the per-cell *extra* engine cycles the layer
costs (building/parsing the SAR fields), so the efficiency comparison
(experiment A1) reflects both the wire tax and the engine tax.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Protocol

from repro.aal.aal5 import AAL5_MAX_SDU, Aal5Reassembler, Aal5Segmenter
from repro.aal.aal34 import (
    AAL34_MAX_SDU,
    Aal34Reassembler,
    Aal34Segmenter,
    SarSegmentType,
)
from repro.aal.interface import AalError, ReassemblyFailure
from repro.atm.addressing import VcAddress
from repro.atm.cell import AtmCell


class SarGlue(Protocol):
    """What the TX/RX engines need from an adaptation layer."""

    #: Engine cycles added to every cell for this layer's SAR fields.
    tx_extra_cycles: int
    rx_extra_cycles: int

    def check_sdu(self, sdu_size: int, uu: int) -> None: ...  # pragma: no cover

    def segmenter_for(
        self, vc: VcAddress
    ) -> Callable[..., List[AtmCell]]: ...  # pragma: no cover

    def make_reassembler(self): ...  # pragma: no cover

    def is_eof(self, cell: AtmCell) -> bool: ...  # pragma: no cover

    def abort_context(self, reassembler, vc, why) -> bool: ...  # pragma: no cover


class Aal5Glue:
    """The zero-overhead layer: EOF rides the PTI, no per-cell fields."""

    name = "aal5"
    tx_extra_cycles = 0
    rx_extra_cycles = 0

    def check_sdu(self, sdu_size: int, uu: int) -> None:
        """Raise :class:`AalError` for an SDU this layer cannot carry."""
        if sdu_size > AAL5_MAX_SDU:
            raise AalError(f"SDU of {sdu_size} bytes exceeds AAL5 maximum")
        if not 0 <= uu <= 0xFF:
            raise AalError(f"CPCS-UU {uu} is not a single byte")

    def segmenter_for(self, vc: VcAddress) -> Callable[..., List[AtmCell]]:
        """*vc*'s segmenting call: ``segment(sdu, uu, meta=None)`` returns
        the cells, each with a copy of *meta*; *vc* is checked here."""
        return Aal5Segmenter(vc).segment

    def make_reassembler(self) -> Aal5Reassembler:
        return Aal5Reassembler()

    #: The cell's own end-of-frame mark, decoded at construction into
    #: the record's last slot (:attr:`AtmCell.end_of_frame`):
    #: ``glue.is_eof(cell)`` reads it in C, so the per-cell test runs no
    #: Python frame.
    is_eof = staticmethod(itemgetter(9))

    def abort_context(
        self,
        reassembler: Aal5Reassembler,
        vc: VcAddress,
        why: ReassemblyFailure,
    ) -> bool:
        return reassembler.abort_context(vc, why)


class Aal34Glue:
    """The 1991-standard layer: 4 bytes and a few cycles per cell.

    The NIC data path runs a single MID stream (MID 0) per VC -- MID
    multiplexing is an AAL3/4 *service* feature exercised at the
    library level (see tests/test_aal34.py), not something the host
    interface of the paper needed.
    """

    name = "aal3/4"
    #: Build the 2-byte header + LI field and feed the CRC-10 unit.
    tx_extra_cycles = 5
    #: Parse header, check LI, consume the CRC-10 verdict.
    rx_extra_cycles = 6
    MID = 0

    def check_sdu(self, sdu_size: int, uu: int) -> None:
        """Raise :class:`AalError` for an SDU this layer cannot carry.

        AAL3/4 has no CPCS-UU byte, so *uu* is not checked (it is dropped).
        """
        if sdu_size > AAL34_MAX_SDU:
            raise AalError(f"SDU of {sdu_size} bytes exceeds AAL3/4 maximum")

    def segmenter_for(self, vc: VcAddress) -> Callable[..., List[AtmCell]]:
        """*vc*'s segmenting call: ``segment(sdu, uu, meta=None)`` returns
        the cells, each with a copy of *meta*; *vc* is checked here."""
        segment = Aal34Segmenter(vc, mid=self.MID).segment
        # AAL3/4 has no CPCS-UU byte; the indication is dropped.
        return lambda sdu, uu, meta=None: segment(sdu, meta=meta)

    def make_reassembler(self) -> Aal34Reassembler:
        return Aal34Reassembler()

    def is_eof(self, cell: AtmCell) -> bool:
        segment_type = cell.payload[0] >> 6
        return segment_type in (SarSegmentType.EOM, SarSegmentType.SSM)

    def abort_context(
        self,
        reassembler: Aal34Reassembler,
        vc: VcAddress,
        why: ReassemblyFailure,
    ) -> bool:
        return reassembler.abort_context(vc, self.MID, why)


def glue_for(aal_name: str) -> SarGlue:
    """Glue instance for a config's ``aal`` field ('aal5' or 'aal3/4')."""
    if aal_name == "aal5":
        return Aal5Glue()
    if aal_name == "aal3/4":
        return Aal34Glue()
    raise ValueError(f"unknown adaptation layer {aal_name!r}")

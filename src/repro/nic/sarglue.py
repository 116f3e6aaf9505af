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

from typing import Protocol

from repro.aal.aal5 import (
    AAL5_MAX_SDU,
    Aal5Reassembler,
    Aal5Segmenter,
    cells_for_sdu,
)
from repro.aal.aal34 import (
    AAL34_MAX_SDU,
    AAL34_SAR_PAYLOAD,
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

    def cells_for(self, sdu_size: int) -> int: ...  # pragma: no cover

    def check_sdu(self, sdu_size: int, uu: int) -> None: ...  # pragma: no cover

    def make_segmenter(self, vc: VcAddress): ...  # pragma: no cover

    def segment(self, segmenter, sdu: bytes, uu: int): ...  # pragma: no cover

    def make_reassembler(self): ...  # pragma: no cover

    def is_eof(self, cell: AtmCell) -> bool: ...  # pragma: no cover

    def abort_context(self, reassembler, vc, why) -> bool: ...  # pragma: no cover


class Aal5Glue:
    """The zero-overhead layer: EOF rides the PTI, no per-cell fields."""

    name = "aal5"
    tx_extra_cycles = 0
    rx_extra_cycles = 0

    def cells_for(self, sdu_size: int) -> int:
        return cells_for_sdu(sdu_size)

    def check_sdu(self, sdu_size: int, uu: int) -> None:
        """Raise :class:`AalError` for an SDU this layer cannot carry."""
        if sdu_size > AAL5_MAX_SDU:
            raise AalError(f"SDU of {sdu_size} bytes exceeds AAL5 maximum")
        if not 0 <= uu <= 0xFF:
            raise AalError(f"CPCS-UU {uu} is not a single byte")

    def make_segmenter(self, vc: VcAddress) -> Aal5Segmenter:
        return Aal5Segmenter(vc)

    def segment(self, segmenter: Aal5Segmenter, sdu: bytes, uu: int):
        return segmenter.segment(sdu, uu=uu)

    def make_reassembler(self) -> Aal5Reassembler:
        return Aal5Reassembler()

    def is_eof(self, cell: AtmCell) -> bool:
        return cell.end_of_frame

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

    def cells_for(self, sdu_size: int) -> int:
        cpcs = 4 + sdu_size + (-sdu_size % 4) + 4
        return -(-cpcs // AAL34_SAR_PAYLOAD)

    def check_sdu(self, sdu_size: int, uu: int) -> None:
        """Raise :class:`AalError` for an SDU this layer cannot carry.

        AAL3/4 has no CPCS-UU byte, so *uu* is not checked (it is dropped).
        """
        if sdu_size > AAL34_MAX_SDU:
            raise AalError(f"SDU of {sdu_size} bytes exceeds AAL3/4 maximum")

    def make_segmenter(self, vc: VcAddress) -> Aal34Segmenter:
        return Aal34Segmenter(vc, mid=self.MID)

    def segment(self, segmenter: Aal34Segmenter, sdu: bytes, uu: int):
        # AAL3/4 has no CPCS-UU byte; the indication is dropped.
        return segmenter.segment(sdu)

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
    if aal_name in ("aal3/4", "aal34"):
        return Aal34Glue()
    raise ValueError(f"unknown adaptation layer {aal_name!r}")

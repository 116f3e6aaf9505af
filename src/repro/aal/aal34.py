"""AAL3/4-class segmentation and reassembly.

This was *the* standardised data adaptation layer when the paper was
written.  Every 48-byte cell payload is a SAR-PDU::

    | ST (2b) | SN (4b) | MID (10b) | payload (44) | LI (6b) | CRC-10 |

- ST: segment type -- BOM (beginning of message), COM (continuation),
  EOM (end), SSM (single-segment message);
- SN: per-stream sequence number modulo 16 (detects cell loss);
- MID: multiplexing identifier, allowing several interleaved CPCS-PDUs
  on one VC;
- LI: number of valid payload bytes; CRC-10 covers the whole SAR-PDU.

The CPCS-PDU wraps the SDU with a 4-byte header (CPI, BTag, BASize) and
4-byte trailer (AL, ETag, Length), padded to a 4-byte multiple; matching
begin/end tags catch the "lost EOM merges two PDUs" hazard.

The 4-bytes-per-cell overhead of this layer versus AAL5's zero is one of
the era's central efficiency arguments, quantified in experiment T4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aal.crc import crc10
from repro.aal.interface import (
    AalError,
    ReassemblyFailure,
    ReassemblyStats,
    SduIndication,
)
from repro.atm.addressing import VcAddress
from repro.atm.cell import PAYLOAD_SIZE, PTI_USER_SDU0, AtmCell, header_template

AAL34_SAR_PAYLOAD = 44
AAL34_MAX_SDU = 65535
_SN_MODULUS = 16
_MAX_MID = 0x3FF
_MAX_LI = AAL34_SAR_PAYLOAD


class SarSegmentType(enum.IntEnum):
    """The two-bit segment-type field."""

    COM = 0b00
    EOM = 0b01
    BOM = 0b10
    SSM = 0b11


def encode_sar_pdu(
    st: SarSegmentType,
    sn: int,
    mid: int,
    payload: bytes,
) -> bytes:
    """Build one 48-byte SAR-PDU (payload right-padded to 44 bytes)."""
    if not 0 <= sn < _SN_MODULUS:
        raise AalError(f"SN {sn} outside 0..15")
    if not 0 <= mid <= _MAX_MID:
        raise AalError(f"MID {mid} outside 0..{_MAX_MID}")
    if len(payload) > AAL34_SAR_PAYLOAD:
        raise AalError(f"SAR payload of {len(payload)} exceeds 44 bytes")
    li = len(payload)
    header = (int(st) << 14) | (sn << 10) | mid
    body = payload + bytes(AAL34_SAR_PAYLOAD - len(payload))
    # Assemble with a zeroed CRC field, then fold the CRC into the last
    # ten bits; LI occupies the top six bits of the trailer halfword.
    trailer = li << 10
    pdu = header.to_bytes(2, "big") + body + trailer.to_bytes(2, "big")
    crc = crc10(pdu)
    trailer |= crc
    return header.to_bytes(2, "big") + body + trailer.to_bytes(2, "big")


def decode_sar_pdu(pdu: bytes) -> Tuple[SarSegmentType, int, int, bytes]:
    """Parse a SAR-PDU; raises :class:`SarCrcError` on CRC-10 failure.

    Returns ``(segment_type, sn, mid, valid_payload)``.
    """
    if len(pdu) != PAYLOAD_SIZE:
        raise AalError(f"SAR-PDU must be 48 bytes, got {len(pdu)}")
    # A correct CRC leaves a zero residue when run across the whole PDU.
    if crc10(pdu) != 0:
        raise SarCrcError("CRC-10 mismatch")
    header = int.from_bytes(pdu[:2], "big")
    st = SarSegmentType((header >> 14) & 0b11)
    sn = (header >> 10) & 0xF
    mid = header & _MAX_MID
    trailer = int.from_bytes(pdu[-2:], "big")
    li = (trailer >> 10) & 0x3F
    if li > _MAX_LI:
        raise SarFormatError(f"LI {li} exceeds 44")
    return st, sn, mid, pdu[2 : 2 + li]


class SarCrcError(ValueError):
    """SAR-PDU CRC-10 failed."""


class SarFormatError(ValueError):
    """SAR-PDU fields are structurally invalid."""


def build_cpcs_pdu_34(sdu: bytes, btag: int) -> bytes:
    """Wrap an SDU in the AAL3/4 CPCS framing."""
    if len(sdu) > AAL34_MAX_SDU:
        raise AalError(f"SDU of {len(sdu)} bytes exceeds AAL3/4 maximum")
    if not 0 <= btag <= 0xFF:
        raise AalError("BTag is a single byte")
    pad = (-len(sdu)) % 4
    header = bytes((0, btag)) + len(sdu).to_bytes(2, "big")  # CPI, BTag, BASize
    trailer = bytes((0, btag)) + len(sdu).to_bytes(2, "big")  # AL, ETag, Length
    return header + sdu + bytes(pad) + trailer


def parse_cpcs_pdu_34(pdu: bytes) -> bytes:
    """Unwrap CPCS framing; raises on tag or length inconsistency."""
    if len(pdu) < 8 or len(pdu) % 4:
        raise CpcsFormatError(f"CPCS-PDU of {len(pdu)} bytes is malformed")
    btag = pdu[1]
    basize = int.from_bytes(pdu[2:4], "big")
    etag = pdu[-3]
    length = int.from_bytes(pdu[-2:], "big")
    if btag != etag:
        raise CpcsTagError(f"BTag {btag} != ETag {etag}")
    if length != basize:
        raise CpcsFormatError(f"Length {length} != BASize {basize}")
    body = pdu[4:-4]
    if not length <= len(body) < length + 4:
        raise CpcsFormatError(
            f"length field {length} inconsistent with {len(body)} body bytes"
        )
    return body[:length]


class CpcsTagError(ValueError):
    """BTag/ETag mismatch (typically a lost EOM merged two PDUs)."""


class CpcsFormatError(ValueError):
    """CPCS length or alignment inconsistency."""


class Aal34Segmenter:
    """Turns SDUs into AAL3/4 cells for one VC (and one MID stream).

    The VC is checked once, here (:class:`CellFormatError` when its VPI
    or VCI is out of range), and every cell is built from it, the
    header template, with one tuple construction: each SAR-PDU is 48 bytes
    and every cell carries the same user PTI.
    """

    def __init__(self, vc: VcAddress, mid: int = 0) -> None:
        if not 0 <= mid <= _MAX_MID:
            raise AalError(f"MID {mid} outside 0..{_MAX_MID}")
        self.vc = header_template(vc)
        self.mid = mid
        self._btag = 0
        self.pdus_segmented = 0
        self.cells_produced = 0

    def segment(self, sdu: bytes, *, meta: Optional[dict] = None) -> List[AtmCell]:
        """SDU -> cells.  BTag auto-increments per PDU (mod 256).

        Each cell's ``meta`` starts as a copy of *meta* (empty if None).
        """
        cpcs = build_cpcs_pdu_34(sdu, self._btag)
        self._btag = (self._btag + 1) & 0xFF
        pieces = [
            cpcs[i : i + AAL34_SAR_PAYLOAD]
            for i in range(0, len(cpcs), AAL34_SAR_PAYLOAD)
        ]
        vc = self.vc
        vpi, vci = vc
        stamp = {} if meta is None else meta
        make = AtmCell._make
        cells: List[AtmCell] = []
        for i, piece in enumerate(pieces):
            if len(pieces) == 1:
                st = SarSegmentType.SSM
            elif i == 0:
                st = SarSegmentType.BOM
            elif i == len(pieces) - 1:
                st = SarSegmentType.EOM
            else:
                st = SarSegmentType.COM
            sar = encode_sar_pdu(st, i % _SN_MODULUS, self.mid, piece)
            cells.append(
                make((vpi, vci, sar, PTI_USER_SDU0, 0, 0, {**stamp}, vc,
                      True, False))
            )
        self.pdus_segmented += 1
        self.cells_produced += len(cells)
        return cells


@dataclass
class _MidContext:
    """Reassembly state for one (VC, MID) stream."""

    chunks: List[bytes] = field(default_factory=list)
    next_sn: int = 0
    cells: int = 0
    poisoned: bool = False  #: error seen; discard through next EOM
    poison_reason: Optional[ReassemblyFailure] = None
    started_at: float = 0.0


class Aal34Reassembler:
    """Reassembles AAL3/4 streams, honouring MID interleaving.

    Contexts are keyed by (VC, MID).  A mid-PDU error (bad CRC, SN skip)
    *poisons* the context: remaining segments are consumed and dropped
    until the EOM resynchronises the stream, mirroring the standard's
    discard procedure.
    """

    def __init__(
        self,
        deliver: Optional[Callable[[SduIndication], None]] = None,
        max_cells: int = (AAL34_MAX_SDU + 8) // AAL34_SAR_PAYLOAD + 2,
    ) -> None:
        self.deliver = deliver
        self.max_cells = max_cells
        #: Observability hook: called as ``on_discard(vc, why, cells)``
        #: whenever a PDU's cells are finally written off (at the settle
        #: point, so the cell count is complete) -- drop tracing attaches
        #: here.
        self.on_discard: Optional[
            Callable[[VcAddress, ReassemblyFailure, int], None]
        ] = None
        self.stats = ReassemblyStats()
        self._contexts: Dict[Tuple[VcAddress, int], _MidContext] = {}

    def _notify_discard(
        self, vc: VcAddress, why: ReassemblyFailure, cells: int
    ) -> None:
        if self.on_discard is not None:
            self.on_discard(vc, why, cells)

    def active_contexts(self) -> int:
        return len(self._contexts)

    def has_context(self, vc: VcAddress, mid: int = 0) -> bool:
        """True when a PDU is mid-reassembly on (vc, mid)."""
        return (vc, mid) in self._contexts

    def open_cells(self) -> int:
        """Total cells held across all open contexts (for conservation)."""
        return sum(context.cells for context in self._contexts.values())

    def receive_cell(self, cell: AtmCell, now: float = 0.0) -> Optional[SduIndication]:
        """Consume one cell; returns an indication when a PDU completes."""
        vc = cell.vc
        self.stats.cells_consumed += 1
        try:
            st, sn, mid, payload = decode_sar_pdu(cell.payload)
        except SarCrcError:
            # Cannot trust any field of the PDU, including the MID: we do
            # not know which context to poison, so the cell is orphaned
            # and the owning context will fail its SN check later.
            self.stats.cells_orphaned += 1
            return None
        except (SarFormatError, AalError):
            self.stats.cells_orphaned += 1
            return None

        key = (vc, mid)
        context = self._contexts.get(key)

        if st in (SarSegmentType.BOM, SarSegmentType.SSM):
            if context is not None and context.chunks and not context.poisoned:
                # New beginning while a PDU was open: the old one lost its
                # EOM.  Discard it and start fresh.
                self.stats.count_failure(
                    ReassemblyFailure.PROTOCOL, cells=context.cells
                )
                self._notify_discard(
                    vc, ReassemblyFailure.PROTOCOL, context.cells
                )
            elif context is not None and context.poisoned:
                # A poisoned PDU is replaced before its EOM resync: its
                # accumulated cells settle into the poisoning failure.
                reason = context.poison_reason or ReassemblyFailure.PROTOCOL
                self.stats.count_discarded_cells(reason, context.cells)
                self._notify_discard(vc, reason, context.cells)
            context = _MidContext(started_at=now)
            self._contexts[key] = context
            context.next_sn = (sn + 1) % _SN_MODULUS
            context.chunks.append(payload)
            context.cells = 1
            if st is SarSegmentType.SSM:
                return self._complete(key, context, now)
            return None

        if context is None:
            # COM/EOM with no open PDU: the BOM was lost.
            self.stats.cells_orphaned += 1
            return None

        context.cells += 1
        if not context.poisoned:
            if sn != context.next_sn:
                context.poisoned = True
                context.poison_reason = ReassemblyFailure.SEQUENCE
                self.stats.count_failure(ReassemblyFailure.SEQUENCE)
            elif context.cells > self.max_cells:
                context.poisoned = True
                context.poison_reason = ReassemblyFailure.OVERSIZE
                self.stats.count_failure(ReassemblyFailure.OVERSIZE)
        context.next_sn = (sn + 1) % _SN_MODULUS
        if not context.poisoned:
            context.chunks.append(payload)

        if st is SarSegmentType.EOM:
            if context.poisoned:
                del self._contexts[key]
                reason = context.poison_reason or ReassemblyFailure.PROTOCOL
                self.stats.count_discarded_cells(reason, context.cells)
                self._notify_discard(vc, reason, context.cells)
                return None
            return self._complete(key, context, now)
        return None

    def _complete(
        self, key: Tuple[VcAddress, int], context: _MidContext, now: float
    ) -> Optional[SduIndication]:
        del self._contexts[key]
        cpcs = b"".join(context.chunks)
        try:
            sdu = parse_cpcs_pdu_34(cpcs)
        except CpcsTagError:
            self.stats.count_failure(
                ReassemblyFailure.TAG_MISMATCH, cells=context.cells
            )
            self._notify_discard(
                key[0], ReassemblyFailure.TAG_MISMATCH, context.cells
            )
            return None
        except CpcsFormatError:
            self.stats.count_failure(ReassemblyFailure.LENGTH, cells=context.cells)
            self._notify_discard(key[0], ReassemblyFailure.LENGTH, context.cells)
            return None
        vc, mid = key
        indication = SduIndication(
            vc=vc, sdu=sdu, cells=context.cells, completed_at=now, mid=mid
        )
        self.stats.pdus_delivered += 1
        self.stats.cells_delivered += context.cells
        self.stats.bytes_delivered += len(sdu)
        if self.deliver is not None:
            self.deliver(indication)
        return indication

    def abort_context(
        self, vc: VcAddress, mid: int, why: ReassemblyFailure
    ) -> bool:
        """Discard a partial PDU (timer expiry, VC teardown)."""
        context = self._contexts.pop((vc, mid), None)
        if context is None:
            return False
        if context.poisoned:
            # The PDU was already counted as a failure when poisoned;
            # only the cell disposition is still outstanding.
            reason = context.poison_reason or why
            self.stats.count_discarded_cells(reason, context.cells)
            self._notify_discard(vc, reason, context.cells)
        else:
            self.stats.count_failure(why, cells=context.cells)
            self._notify_discard(vc, why, context.cells)
        return True

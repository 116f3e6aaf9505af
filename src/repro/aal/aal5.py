"""AAL5-class segmentation and reassembly.

The "simple and efficient adaptation layer": the CPCS-PDU is the SDU,
zero-padded so that payload + 8-byte trailer fill an integral number of
48-byte cells.  The trailer is::

    | CPCS-UU (1) | CPI (1) | Length (2) | CRC-32 (4) |

and the last cell of a PDU is marked in the ATM header's PTI SDU-type
bit -- which is why AAL5 needs no per-cell overhead at all.  Loss of any
cell is caught by the length/CRC check over the whole CPCS-PDU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aal.crc import CRC32_AAL5
from repro.aal.interface import (
    AalError,
    ReassemblyFailure,
    ReassemblyStats,
    SduIndication,
)
from repro.atm.addressing import VcAddress
from repro.atm.cell import (
    PAYLOAD_SIZE,
    PTI_USER_SDU0,
    PTI_USER_SDU1,
    AtmCell,
    header_template,
)

AAL5_TRAILER_SIZE = 8
AAL5_MAX_SDU = 65535
#: Largest AAL5 CPCS-PDU in cells: 65535-byte SDU + trailer + padding.
AAL5_MAX_CELLS = (AAL5_MAX_SDU + AAL5_TRAILER_SIZE + PAYLOAD_SIZE - 1) // PAYLOAD_SIZE


def cells_for_sdu(sdu_size: int) -> int:
    """Number of cells an SDU of *sdu_size* bytes occupies on the wire."""
    if not 0 <= sdu_size <= AAL5_MAX_SDU:
        raise AalError(f"SDU size {sdu_size} outside 0..{AAL5_MAX_SDU}")
    return max(1, (sdu_size + AAL5_TRAILER_SIZE + PAYLOAD_SIZE - 1) // PAYLOAD_SIZE)


def build_cpcs_pdu(sdu: bytes, uu: int = 0, cpi: int = 0) -> bytes:
    """SDU -> padded CPCS-PDU with trailer (an exact multiple of 48)."""
    if len(sdu) > AAL5_MAX_SDU:
        raise AalError(f"SDU of {len(sdu)} bytes exceeds AAL5 maximum")
    if not 0 <= uu <= 0xFF or not 0 <= cpi <= 0xFF:
        raise AalError("UU and CPI are single bytes")
    pad_len = (-(len(sdu) + AAL5_TRAILER_SIZE)) % PAYLOAD_SIZE
    body = sdu + bytes(pad_len)
    trailer_head = bytes((uu, cpi)) + len(sdu).to_bytes(2, "big")
    return CRC32_AAL5.append(body + trailer_head)


def parse_cpcs_pdu(pdu: bytes) -> Tuple[bytes, int, int]:
    """CPCS-PDU -> (sdu, uu, cpi); raises ValueError-family on corruption.

    Raises :class:`CpcsCrcError` or :class:`CpcsLengthError` so callers
    can map failures onto the shared taxonomy.
    """
    if len(pdu) < AAL5_TRAILER_SIZE or len(pdu) % PAYLOAD_SIZE:
        raise CpcsLengthError(f"CPCS-PDU of {len(pdu)} bytes is malformed")
    if not CRC32_AAL5.residue_ok(pdu):
        raise CpcsCrcError("CRC-32 mismatch")
    uu = pdu[-8]
    cpi = pdu[-7]
    length = int.from_bytes(pdu[-6:-4], "big")
    max_payload = len(pdu) - AAL5_TRAILER_SIZE
    if length > max_payload or max_payload - length >= PAYLOAD_SIZE:
        raise CpcsLengthError(
            f"length field {length} inconsistent with {len(pdu)}-byte PDU"
        )
    return pdu[:length], uu, cpi


class CpcsCrcError(ValueError):
    """CPCS CRC-32 failed."""


class CpcsLengthError(ValueError):
    """CPCS length field inconsistent with received bytes."""


class Aal5Segmenter:
    """Turns SDUs into ready-to-send cells for one VC.

    The VC is checked once, here (:class:`CellFormatError` when its VPI
    or VCI is out of range), and every cell is built from it, the
    header template, with one tuple construction: the CPCS padding makes
    each payload 48 bytes, and only the PTI's end-of-frame bit differs
    from cell to cell.
    """

    def __init__(self, vc: VcAddress) -> None:
        self.vc = header_template(vc)
        self.pdus_segmented = 0
        self.cells_produced = 0

    def segment(
        self,
        sdu: bytes,
        uu: int = 0,
        cpi: int = 0,
        *,
        meta: Optional[dict] = None,
    ) -> List[AtmCell]:
        """SDU -> list of cells; the final cell carries the PTI EOF mark.

        Each cell's ``meta`` starts as a copy of *meta* (empty if None).
        """
        pdu = build_cpcs_pdu(sdu, uu=uu, cpi=cpi)
        vc = self.vc
        vpi, vci = vc
        stamp = {} if meta is None else meta
        make = AtmCell._make
        eof_at = len(pdu) - PAYLOAD_SIZE
        cells = [
            make((vpi, vci, pdu[i : i + PAYLOAD_SIZE], PTI_USER_SDU0, 0, 0,
                  {**stamp}, vc, True, False))
            for i in range(0, eof_at, PAYLOAD_SIZE)
        ]
        cells.append(
            make((vpi, vci, pdu[eof_at:], PTI_USER_SDU1, 0, 0,
                  {**stamp}, vc, True, True))
        )
        self.pdus_segmented += 1
        self.cells_produced += len(cells)
        return cells


@dataclass
class _PartialPdu:
    """Accumulating reassembly state for one VC."""

    chunks: List[bytes] = field(default_factory=list)
    cells: int = 0
    started_at: float = 0.0


class Aal5Reassembler:
    """Reassembles interleaved VCs' cell streams back into SDUs.

    Feed every received cell to :meth:`receive_cell`; completed SDUs are
    handed to *deliver* (or returned).  A cell on a VC without prior
    context implicitly opens a context -- AAL5 needs no signalling to
    reassemble, only the EOF bit.  Loss of an EOF cell merges two PDUs;
    the CRC/length check then discards the merged mess, which is exactly
    AAL5's documented failure mode.
    """

    def __init__(
        self,
        deliver: Optional[Callable[[SduIndication], None]] = None,
        max_cells: int = AAL5_MAX_CELLS,
        max_contexts: Optional[int] = None,
    ) -> None:
        if max_cells < 1:
            raise AalError("max_cells must be >= 1")
        if max_contexts is not None and max_contexts < 1:
            raise AalError("max_contexts must be >= 1 or None")
        self.deliver = deliver
        self.max_cells = max_cells
        #: Quota on simultaneously open reassembly contexts.  A first
        #: cell arriving while the table is full evicts the *oldest*
        #: open context (QUOTA failure) -- bounded context memory is a
        #: hardware reality, and oldest-first is the right victim: the
        #: oldest partial PDU is the likeliest to have a lost tail.
        self.max_contexts = max_contexts
        #: Called with the evicted VC (after the context is gone) so the
        #: owner can reclaim buffer memory and timers.
        self.on_evict: Optional[Callable[[VcAddress], None]] = None
        #: Observability hook: called as ``on_discard(vc, why, cells)``
        #: for every PDU the reassembler gives up on, alongside the
        #: stats ledger -- this is where drop *tracing* attaches.
        self.on_discard: Optional[
            Callable[[VcAddress, ReassemblyFailure, int], None]
        ] = None
        self.stats = ReassemblyStats()
        self._partial: Dict[VcAddress, _PartialPdu] = {}
        #: ``has_context(vc)``: True when a PDU is mid-reassembly on
        #: *vc* -- the table's own membership test, which runs no frame.
        self.has_context: Callable[[VcAddress], bool] = (
            self._partial.__contains__
        )

    def _discarded(
        self, vc: VcAddress, why: ReassemblyFailure, cells: int
    ) -> None:
        self.stats.count_failure(why, cells=cells)
        if self.on_discard is not None:
            self.on_discard(vc, why, cells)

    def active_contexts(self) -> int:
        """Number of VCs with a PDU currently mid-reassembly."""
        return len(self._partial)

    def context_cells(self, vc: VcAddress) -> int:
        """Cells so far in the VC's partial PDU (0 if none open)."""
        partial = self._partial.get(vc)
        return 0 if partial is None else partial.cells

    def open_cells(self) -> int:
        """Total cells held across all open contexts (for conservation)."""
        return sum(partial.cells for partial in self._partial.values())

    def _evict_oldest(self) -> None:
        """Make room for a new context: QUOTA-discard the oldest one."""
        victim = next(iter(self._partial))  # insertion order == open order
        partial = self._partial.pop(victim)
        self._discarded(victim, ReassemblyFailure.QUOTA, partial.cells)
        if self.on_evict is not None:
            self.on_evict(victim)

    def receive_cell(self, cell: AtmCell, now: float = 0.0) -> Optional[SduIndication]:
        """Consume one cell; returns the SDU indication on completion."""
        vc = cell.vc
        self.stats.cells_consumed += 1
        partial = self._partial.get(vc)
        if partial is None:
            if (
                self.max_contexts is not None
                and len(self._partial) >= self.max_contexts
            ):
                self._evict_oldest()
            partial = _PartialPdu(started_at=now)
            self._partial[vc] = partial
        partial.chunks.append(cell.payload)
        partial.cells += 1

        if partial.cells > self.max_cells:
            del self._partial[vc]
            self._discarded(vc, ReassemblyFailure.OVERSIZE, partial.cells)
            return None
        if not cell.end_of_frame:
            return None

        del self._partial[vc]
        pdu = b"".join(partial.chunks)
        try:
            sdu, uu, _cpi = parse_cpcs_pdu(pdu)
        except CpcsCrcError:
            self._discarded(vc, ReassemblyFailure.CRC, partial.cells)
            return None
        except CpcsLengthError:
            self._discarded(vc, ReassemblyFailure.LENGTH, partial.cells)
            return None
        indication = SduIndication(
            vc=vc,
            sdu=sdu,
            cells=partial.cells,
            completed_at=now,
            user_indication=uu,
        )
        self.stats.pdus_delivered += 1
        self.stats.cells_delivered += partial.cells
        self.stats.bytes_delivered += len(sdu)
        if self.deliver is not None:
            self.deliver(indication)
        return indication

    def abort_context(self, vc: VcAddress, why: ReassemblyFailure) -> bool:
        """Discard a partial PDU (timer expiry, VC teardown)."""
        partial = self._partial.pop(vc, None)
        if partial is None:
            return False
        self._discarded(vc, why, partial.cells)
        return True

    def context_age(self, vc: VcAddress, now: float) -> Optional[float]:
        """Seconds the VC's partial PDU has been open, or None."""
        partial = self._partial.get(vc)
        return None if partial is None else now - partial.started_at

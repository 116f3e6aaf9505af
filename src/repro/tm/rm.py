"""Resource-management (RM) cell codec for the ABR control loop.

TM 4.0 runs ABR's closed loop over *RM cells*: management cells that
ride inside the data VC (PTI = 0b110) carrying the source's current
cell rate (CCR), the explicit rate the network will tolerate (ER), and
the binary congestion bits (CI -- congestion indication, NI -- no
increase, BN -- backward-notification / non-source-generated).  A
source emits one *forward* RM cell every Nrm data cells; switches on
the path may reduce ER in place; the destination turns the cell around
as a *backward* RM cell, and the source adjusts its allowed cell rate
(ACR) from the returned fields.

Cell payload layout modelled here (48 bytes)::

    | protocol id (1) | flags: DIR/BN/CI/NI (1) |
    | ER (8, IEEE double) | CCR (8) | MCR (8) |
    | unused / 0x6A fill (20) | reserved (6 bits) + CRC-10 |

Documented divergence from TM 4.0 (see docs/TRAFFIC.md): the real
format packs rates as 16-bit binary floating point and carries QL/SN
fields we do not model; we spend the idle payload bytes on IEEE
doubles so the simulated control loop is exact, and keep the CRC-10
trailer convention shared with :mod:`repro.atm.oam`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.aal.crc import crc10
from repro.atm.addressing import VcAddress
from repro.atm.cell import PAYLOAD_SIZE, PTI_RESOURCE_MGMT, AtmCell

#: TM 4.0 RM protocol identifier for the ABR service.
RM_PROTOCOL_ID = 0x01

_FLAG_DIR = 0x80  # 0 = forward (source -> destination), 1 = backward
_FLAG_BN = 0x40  # non-source-generated (backward explicit notification)
_FLAG_CI = 0x20  # congestion indication
_FLAG_NI = 0x10  # no additive increase allowed

_FILL = 0x6A
_RATES = struct.Struct(">ddd")  # ER, CCR, MCR as cells/second


class RmFormatError(ValueError):
    """Malformed or corrupted RM cell payload."""


def is_rm_cell(cell: AtmCell) -> bool:
    """True when the PTI marks *cell* as a resource-management cell."""
    return cell.pti == PTI_RESOURCE_MGMT


@dataclass(frozen=True)
class RmCell:
    """Decoded form of an ABR resource-management cell.

    Rates (``er``, ``ccr``, ``mcr``) are in cells per second.  A
    forward cell (``forward=True``) travels source-to-destination; the
    destination flips the DIR bit when turning it around.
    """

    vc: VcAddress
    forward: bool = True
    er: float = 0.0
    ccr: float = 0.0
    mcr: float = 0.0
    ci: bool = False
    ni: bool = False
    bn: bool = False

    def encode(self) -> AtmCell:
        """Build the on-the-wire cell (PTI marks it resource management)."""
        if self.er < 0 or self.ccr < 0 or self.mcr < 0:
            raise RmFormatError("RM rates must be non-negative")
        flags = 0
        if not self.forward:
            flags |= _FLAG_DIR
        if self.bn:
            flags |= _FLAG_BN
        if self.ci:
            flags |= _FLAG_CI
        if self.ni:
            flags |= _FLAG_NI
        body = (
            bytes((RM_PROTOCOL_ID, flags))
            + _RATES.pack(self.er, self.ccr, self.mcr)
            + bytes([_FILL]) * (PAYLOAD_SIZE - 2 - _RATES.size - 2)
            + bytes(2)  # reserved bits + zeroed CRC field
        )
        trailer = crc10(body)
        payload = body[:-2] + trailer.to_bytes(2, "big")
        return AtmCell(
            vpi=self.vc.vpi,
            vci=self.vc.vci,
            payload=payload,
            pti=PTI_RESOURCE_MGMT,
        )

    @classmethod
    def decode(cls, cell: AtmCell) -> "RmCell":
        """Parse an RM cell; raises :class:`RmFormatError` on damage."""
        if not is_rm_cell(cell):
            raise RmFormatError("not an RM cell (PTI is not 0b110)")
        payload = cell.payload
        if crc10(payload) != 0:
            raise RmFormatError("RM CRC-10 failed")
        if payload[0] != RM_PROTOCOL_ID:
            raise RmFormatError(
                f"unsupported RM protocol id 0x{payload[0]:02x}"
            )
        flags = payload[1]
        er, ccr, mcr = _RATES.unpack_from(payload, 2)
        return cls(
            vc=cell.vc,
            forward=not flags & _FLAG_DIR,
            er=er,
            ccr=ccr,
            mcr=mcr,
            ci=bool(flags & _FLAG_CI),
            ni=bool(flags & _FLAG_NI),
            bn=bool(flags & _FLAG_BN),
        )

    def turned_around(self, ci: bool = False, ni: bool = False) -> "RmCell":
        """The backward cell a destination reflects to the source.

        The destination preserves ER/CCR/MCR, flips DIR, and may OR in
        its own congestion state (EFCI seen since the last RM cell).
        """
        return RmCell(
            vc=self.vc,
            forward=False,
            er=self.er,
            ccr=self.ccr,
            mcr=self.mcr,
            ci=self.ci or ci,
            ni=self.ni or ni,
            bn=self.bn,
        )

    def with_er(self, er: float) -> "RmCell":
        """Copy with ER replaced (a switch stamping its allocation)."""
        return RmCell(
            vc=self.vc,
            forward=self.forward,
            er=er,
            ccr=self.ccr,
            mcr=self.mcr,
            ci=self.ci,
            ni=self.ni,
            bn=self.bn,
        )

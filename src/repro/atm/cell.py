"""The ATM cell: a 53-byte unit with a 5-byte header and 48-byte payload.

The header layout modelled here is the UNI format of I.361::

    bit   7    6    5    4    3    2    1    0
    byte0 [   GFC (4)        ][   VPI high (4)  ]
    byte1 [   VPI low (4)    ][   VCI 15..12    ]
    byte2 [              VCI 11..4              ]
    byte3 [   VCI 3..0       ][ PTI (3) ][ CLP ]
    byte4 [              HEC (CRC-8)            ]

The NNI format replaces the GFC with four more VPI bits; both are
supported via the ``nni`` flag of :meth:`AtmCell.to_bytes`.

Payload-type indicator (PTI) encoding relevant to this reproduction:

- bit 2 (MSB): 0 = user data, 1 = OAM/management,
- bit 1: congestion experienced (EFCI),
- bit 0: ATM-user-to-ATM-user indication -- the adaptation layer's
  end-of-frame marker ("SDU type"), the bit AAL5-class SAR rides on.
"""

from __future__ import annotations

from collections import _tuplegetter
from typing import Optional

from repro.atm.addressing import VcAddress
from repro.atm.hec import check_hec, compute_hec, correct_header

CELL_SIZE = 53
HEADER_SIZE = 5
PAYLOAD_SIZE = 48

PTI_USER_SDU0 = 0b000  #: user cell, not end of frame, no congestion
PTI_USER_SDU1 = 0b001  #: user cell, end of frame (AAL5-class last cell)
PTI_USER_SDU0_EFCI = 0b010
PTI_USER_SDU1_EFCI = 0b011
PTI_OAM_SEGMENT = 0b100
PTI_OAM_END_TO_END = 0b101
PTI_RESOURCE_MGMT = 0b110

_MAX_GFC = 0xF
_MAX_VPI_UNI = 0xFF
_MAX_VPI_NNI = 0xFFF
_MAX_VCI = 0xFFFF
_MAX_PTI = 0b111

_tuple_new = tuple.__new__


class CellFormatError(ValueError):
    """Raised when encoding/decoding a malformed cell."""


class AtmCell(tuple):
    """One ATM cell.  Immutable; header rewrites produce new cells.

    The cell is a record built on :class:`tuple`: its six header and
    payload fields, ``meta``, and three values decoded once at
    construction -- :attr:`vc`, :attr:`is_user_cell` and
    :attr:`end_of_frame` -- which every hop reads instead of decoding
    the header again.  It has no per-instance ``__dict__``, and each
    field is read through the C-level accessor ``collections.namedtuple``
    installs, so a read runs no Python frame.

    ``AtmCell(...)`` checks every field.  A segmenter, whose cells all
    share one VC's header, checks that header once, when it is made
    (:func:`header_template`), and builds each cell with
    :meth:`_make`, which checks nothing.

    The ``meta`` dict carries simulation-only annotations (timestamps,
    originating PDU ids) that would not exist on the wire; it never
    affects the encoded bytes, equality, or hashing.
    """

    __slots__ = ()

    def __new__(
        cls,
        vpi: int,
        vci: int,
        payload: bytes,
        pti: int = PTI_USER_SDU0,
        clp: int = 0,
        gfc: int = 0,
        meta: Optional[dict] = None,
    ) -> "AtmCell":
        user = not pti & 0b100
        self = _tuple_new(
            cls,
            (
                vpi,
                vci,
                payload,
                pti,
                clp,
                gfc,
                {} if meta is None else meta,
                # VcAddress(vpi, vci), without its constructor's frame.
                _tuple_new(VcAddress, (vpi, vci)),
                user,
                user and pti & 0b001 == 1,
            ),
        )
        self.__post_init__()
        return self

    #: ``AtmCell._make(record)``: the cell whose ten slots are *record*,
    #: unchecked -- ``tuple.__new__``, so building a cell runs no
    #: Python frame.  The slots, in order: ``vpi, vci, payload, pti,
    #: clp, gfc, meta, vc, is_user_cell, end_of_frame``.
    _make = classmethod(_tuple_new)

    def __post_init__(self) -> None:
        """Validate the header fields and payload (once per ``AtmCell(...)``)."""
        vpi, vci, payload, pti, clp, gfc = self[:6]
        if not 0 <= gfc <= _MAX_GFC:
            raise CellFormatError(f"GFC {gfc} out of range")
        if not 0 <= vpi <= _MAX_VPI_NNI:
            raise CellFormatError(f"VPI {vpi} out of range")
        if not 0 <= vci <= _MAX_VCI:
            raise CellFormatError(f"VCI {vci} out of range")
        if not 0 <= pti <= _MAX_PTI:
            raise CellFormatError(f"PTI {pti} out of range")
        if clp not in (0, 1):
            raise CellFormatError(f"CLP {clp} must be 0 or 1")
        if len(payload) != PAYLOAD_SIZE:
            raise CellFormatError(
                f"payload must be exactly {PAYLOAD_SIZE} bytes, "
                f"got {len(payload)}"
            )

    vpi = _tuplegetter(0, "Virtual path identifier.")
    vci = _tuplegetter(1, "Virtual channel identifier.")
    payload = _tuplegetter(2, "The 48-byte payload.")
    pti = _tuplegetter(3, "Payload-type indicator (3 bits).")
    clp = _tuplegetter(4, "Cell-loss priority (0 or 1).")
    gfc = _tuplegetter(5, "Generic flow control (UNI only).")
    meta = _tuplegetter(6, "Simulation-only annotations, never on the wire.")
    vc = _tuplegetter(7, "The cell's (VPI, VCI) as a VcAddress.")
    is_user_cell = _tuplegetter(8, "True for user-data cells (PTI MSB clear).")
    end_of_frame = _tuplegetter(
        9, "The AAL5-class last-cell marker (PTI SDU-type bit)."
    )

    # -- identity: the six header and payload fields, never meta ------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self[:6] == other[:6]
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self[:6] != other[:6]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self[:6])

    def __getnewargs__(self) -> tuple:
        """Constructor arguments for copy and pickle (``meta`` included)."""
        return self[:7]

    # -- wire format -------------------------------------------------------

    def header_bytes(self, nni: bool = False) -> bytes:
        """The first four header bytes (HEC excluded)."""
        if nni:
            if self.gfc:
                raise CellFormatError("NNI cells have no GFC field")
            b0 = (self.vpi >> 4) & 0xFF
        else:
            if self.vpi > _MAX_VPI_UNI:
                raise CellFormatError(
                    f"VPI {self.vpi} exceeds UNI maximum {_MAX_VPI_UNI}"
                )
            b0 = (self.gfc << 4) | ((self.vpi >> 4) & 0xF)
        b1 = ((self.vpi & 0xF) << 4) | ((self.vci >> 12) & 0xF)
        b2 = (self.vci >> 4) & 0xFF
        b3 = ((self.vci & 0xF) << 4) | (self.pti << 1) | self.clp
        return bytes((b0, b1, b2, b3))

    def to_bytes(self, nni: bool = False) -> bytes:
        """Full 53-byte encoding, HEC computed over the header."""
        header = self.header_bytes(nni)
        return header + bytes((compute_hec(header),)) + self.payload

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        nni: bool = False,
        correct_single_bit: bool = False,
    ) -> "AtmCell":
        """Decode 53 bytes; verifies (and optionally corrects) the HEC.

        Raises :class:`CellFormatError` on length or HEC failure.  With
        *correct_single_bit* a single-bit header error is repaired the way
        the HEC correction mode of a real receiver would.
        """
        if len(data) != CELL_SIZE:
            raise CellFormatError(
                f"cell must be {CELL_SIZE} bytes, got {len(data)}"
            )
        header5 = data[:HEADER_SIZE]
        if not check_hec(header5):
            if correct_single_bit:
                corrected = correct_header(header5)
                if corrected is None:
                    raise CellFormatError("uncorrectable header (HEC)")
                header5 = corrected
            else:
                raise CellFormatError("HEC check failed")
        b0, b1, b2, b3 = header5[0], header5[1], header5[2], header5[3]
        if nni:
            gfc = 0
            vpi = (b0 << 4) | (b1 >> 4)
        else:
            gfc = b0 >> 4
            vpi = ((b0 & 0xF) << 4) | (b1 >> 4)
        vci = ((b1 & 0xF) << 12) | (b2 << 4) | (b3 >> 4)
        pti = (b3 >> 1) & 0b111
        clp = b3 & 1
        return cls(
            vpi=vpi,
            vci=vci,
            payload=data[HEADER_SIZE:],
            pti=pti,
            clp=clp,
            gfc=gfc,
        )

    # -- semantics ----------------------------------------------------------

    @property
    def congestion_experienced(self) -> bool:
        return self.is_user_cell and bool(self.pti & 0b010)

    def with_header(
        self,
        vpi: Optional[int] = None,
        vci: Optional[int] = None,
        pti: Optional[int] = None,
        clp: Optional[int] = None,
    ) -> "AtmCell":
        """Header translation (what a switch does); payload untouched.

        The new cell shares this cell's ``meta`` dict (it is not
        copied), which is how a relabelled cell keeps its trace
        ``cell_id`` and PDU annotations across hops.
        """
        old_vpi, old_vci, payload, old_pti, old_clp, gfc, meta = self[:7]
        return self.__class__(
            old_vpi if vpi is None else vpi,
            old_vci if vci is None else vci,
            payload,
            old_pti if pti is None else pti,
            old_clp if clp is None else clp,
            gfc,
            meta,
        )

    def __repr__(self) -> str:
        eof = " EOF" if self.end_of_frame else ""
        return (
            f"AtmCell(vpi={self.vpi}, vci={self.vci}, pti={self.pti}{eof}, "
            f"clp={self.clp})"
        )


def header_template(vc: VcAddress) -> VcAddress:
    """*vc*, checked once for a stream of user cells that all carry it.

    The VPI and VCI are checked here as ``AtmCell(...)`` checks them for
    each cell (:class:`CellFormatError` when out of range); the result
    is a :class:`VcAddress` (*vc* itself when it is one).  A segmenter
    builds each cell from it with one unchecked construction::

        vpi, vci = vc
        AtmCell._make((vpi, vci, payload, pti, 0, 0, meta, vc, True, eof))

    which is valid when the rest holds by construction: *pti* is a user
    PTI constant, CLP and GFC are 0, ``eof`` is *pti*'s SDU-type bit,
    and the adaptation layer fixes every payload at 48 bytes.
    """
    vpi, vci = vc
    if not 0 <= vpi <= _MAX_VPI_NNI:
        raise CellFormatError(f"VPI {vpi} out of range")
    if not 0 <= vci <= _MAX_VCI:
        raise CellFormatError(f"VCI {vci} out of range")
    return vc if type(vc) is VcAddress else _tuple_new(VcAddress, (vpi, vci))


def pad_payload(data: bytes, fill: int = 0x00) -> bytes:
    """Right-pad *data* to exactly one cell payload (48 bytes)."""
    if len(data) > PAYLOAD_SIZE:
        raise CellFormatError(
            f"payload fragment of {len(data)} bytes exceeds {PAYLOAD_SIZE}"
        )
    return data + bytes([fill]) * (PAYLOAD_SIZE - len(data))

"""OAM F5 fault management: loopback, AIS/RDI alarms, continuity checks.

I.610 defines fault-management cells that flow *inside* a virtual
channel (F5 flow) but are marked by the PTI as management traffic
(PTI = 0b101 for end-to-end).  The loopback function is the one every
operator used: send a loopback cell with the "to be looped" indication
set, the far end's hardware reflects it with the indication cleared,
and the round-trip time measures the path through both interfaces'
cell machinery -- *without* touching either host.

Beyond loopback this module carries the alarm vocabulary of the
fault-management plane:

- **AIS** (Alarm Indication Signal) flows *downstream* from the point
  that detected a defect, telling everyone past the break that the
  upstream path is dead;
- **RDI** (Remote Defect Indication) flows back *upstream*, telling
  the sender that its transmit path failed somewhere ahead;
- **CC** (Continuity Check) cells are a heartbeat: a source emits one
  per period, and a sliding-window sink declares loss of continuity
  (LOC) when the stream goes silent for longer than a configured
  interval.

Cell payload layout modelled here (48 bytes, shared by all four)::

    | OAM type/function (1) | indication (1) |
    | tag (4)               | source id (12) |
    | unused / 0x6A fill (28) | reserved (6 bits) + CRC-10 |

The 4-byte tag is the loopback correlation for loopback cells and a
monotone sequence number for CC cells; alarms leave it zero.  The
CRC-10 uses the same convention as the AAL3/4 SAR trailer: the last
10 bits hold the residue of the whole payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.aal.crc import crc10
from repro.atm.addressing import VcAddress
from repro.atm.cell import PAYLOAD_SIZE, PTI_OAM_END_TO_END, AtmCell

# OAM type (high nibble) / function (low nibble) bytes, per I.610.
_OAM_TYPE_FAULT_AIS = 0x10  # fault management (0001), AIS (0000)
_OAM_TYPE_FAULT_RDI = 0x11  # fault management (0001), RDI (0001)
_OAM_TYPE_FAULT_CC = 0x14  # fault management (0001), continuity check (0100)
_OAM_TYPE_FAULT_LOOPBACK = 0x18  # fault management (0001), loopback (1000)

OAM_TYPE_AIS = _OAM_TYPE_FAULT_AIS
OAM_TYPE_RDI = _OAM_TYPE_FAULT_RDI
OAM_TYPE_CC = _OAM_TYPE_FAULT_CC
OAM_TYPE_LOOPBACK = _OAM_TYPE_FAULT_LOOPBACK

_FILL = 0x6A
_SOURCE_ID_SIZE = 12

LOOP_ME = 0x01  #: loopback indication: please reflect this cell
LOOPED = 0x00  #: loopback indication: this is the reflection

AIS = "ais"  #: alarm kind: Alarm Indication Signal (flows downstream)
RDI = "rdi"  #: alarm kind: Remote Defect Indication (flows upstream)

_ALARM_TYPE_BY_KIND = {AIS: _OAM_TYPE_FAULT_AIS, RDI: _OAM_TYPE_FAULT_RDI}
_ALARM_KIND_BY_TYPE = {v: k for k, v in _ALARM_TYPE_BY_KIND.items()}


class OamFormatError(ValueError):
    """Malformed or corrupted OAM cell payload."""


def _seal(vc: VcAddress, type_byte: int, indication: int, tag: int, source_id: bytes) -> AtmCell:
    """Assemble the common 48-byte payload and stamp the CRC-10."""
    if not 0 <= tag <= 0xFFFFFFFF:
        raise OamFormatError("OAM tag field is 32 bits")
    if len(source_id) != _SOURCE_ID_SIZE:
        raise OamFormatError(f"source id is {_SOURCE_ID_SIZE} bytes")
    body = (
        bytes((type_byte, indication))
        + tag.to_bytes(4, "big")
        + source_id
        + bytes([_FILL]) * (PAYLOAD_SIZE - 2 - 4 - _SOURCE_ID_SIZE - 2)
        + bytes(2)  # reserved bits + zeroed CRC field
    )
    trailer = crc10(body)
    payload = body[:-2] + trailer.to_bytes(2, "big")
    return AtmCell(
        vpi=vc.vpi,
        vci=vc.vci,
        payload=payload,
        pti=PTI_OAM_END_TO_END,
    )


def _checked_payload(cell: AtmCell) -> bytes:
    if cell.is_user_cell:
        raise OamFormatError("not an OAM cell (PTI marks user data)")
    payload = cell.payload
    if crc10(payload) != 0:
        raise OamFormatError("OAM CRC-10 failed")
    return payload


@dataclass(frozen=True)
class LoopbackCell:
    """Decoded form of an F5 loopback cell."""

    vc: VcAddress
    correlation: int
    to_be_looped: bool
    source_id: bytes = bytes(_SOURCE_ID_SIZE)

    def encode(self) -> AtmCell:
        """Build the on-the-wire cell (PTI marks it as end-to-end OAM)."""
        if not 0 <= self.correlation <= 0xFFFFFFFF:
            raise OamFormatError("correlation tag is 32 bits")
        return _seal(
            self.vc,
            _OAM_TYPE_FAULT_LOOPBACK,
            LOOP_ME if self.to_be_looped else LOOPED,
            self.correlation,
            self.source_id,
        )

    @classmethod
    def decode(cls, cell: AtmCell) -> "LoopbackCell":
        """Parse an OAM cell; raises :class:`OamFormatError` on damage."""
        payload = _checked_payload(cell)
        if payload[0] != _OAM_TYPE_FAULT_LOOPBACK:
            raise OamFormatError(
                f"unsupported OAM type/function 0x{payload[0]:02x}"
            )
        indication = payload[1]
        if indication not in (LOOP_ME, LOOPED):
            raise OamFormatError(f"bad loopback indication {indication}")
        return cls(
            vc=cell.vc,
            correlation=int.from_bytes(payload[2:6], "big"),
            to_be_looped=indication == LOOP_ME,
            source_id=payload[6 : 6 + _SOURCE_ID_SIZE],
        )

    def reflection(self) -> "LoopbackCell":
        """The cell the far end sends back (indication cleared)."""
        return LoopbackCell(
            vc=self.vc,
            correlation=self.correlation,
            to_be_looped=False,
            source_id=self.source_id,
        )


@dataclass(frozen=True)
class AlarmCell:
    """An AIS or RDI alarm cell on one virtual channel.

    ``kind`` is :data:`AIS` (downstream "path ahead of you is broken")
    or :data:`RDI` (upstream "your transmit path is broken").  The
    source id names the interface that detected the defect.
    """

    vc: VcAddress
    kind: str
    source_id: bytes = bytes(_SOURCE_ID_SIZE)

    def encode(self) -> AtmCell:
        type_byte = _ALARM_TYPE_BY_KIND.get(self.kind)
        if type_byte is None:
            raise OamFormatError(f"unknown alarm kind {self.kind!r}")
        return _seal(self.vc, type_byte, 0, 0, self.source_id)

    @classmethod
    def decode(cls, cell: AtmCell) -> "AlarmCell":
        payload = _checked_payload(cell)
        kind = _ALARM_KIND_BY_TYPE.get(payload[0])
        if kind is None:
            raise OamFormatError(
                f"unsupported OAM type/function 0x{payload[0]:02x}"
            )
        return cls(
            vc=cell.vc,
            kind=kind,
            source_id=payload[6 : 6 + _SOURCE_ID_SIZE],
        )


@dataclass(frozen=True)
class ContinuityCell:
    """One continuity-check heartbeat cell."""

    vc: VcAddress
    sequence: int
    source_id: bytes = bytes(_SOURCE_ID_SIZE)

    def encode(self) -> AtmCell:
        return _seal(
            self.vc, _OAM_TYPE_FAULT_CC, 0, self.sequence & 0xFFFFFFFF, self.source_id
        )

    @classmethod
    def decode(cls, cell: AtmCell) -> "ContinuityCell":
        payload = _checked_payload(cell)
        if payload[0] != _OAM_TYPE_FAULT_CC:
            raise OamFormatError(
                f"unsupported OAM type/function 0x{payload[0]:02x}"
            )
        return cls(
            vc=cell.vc,
            sequence=int.from_bytes(payload[2:6], "big"),
            source_id=payload[6 : 6 + _SOURCE_ID_SIZE],
        )


OamPdu = Union[LoopbackCell, AlarmCell, ContinuityCell]


def decode_oam(cell: AtmCell) -> OamPdu:
    """Demux an OAM cell by its type/function byte.

    Returns the decoded :class:`LoopbackCell`, :class:`AlarmCell` or
    :class:`ContinuityCell`; raises :class:`OamFormatError` for damage
    or unknown type bytes.
    """
    payload = _checked_payload(cell)
    type_byte = payload[0]
    if type_byte == _OAM_TYPE_FAULT_LOOPBACK:
        return LoopbackCell.decode(cell)
    if type_byte in _ALARM_KIND_BY_TYPE:
        return AlarmCell.decode(cell)
    if type_byte == _OAM_TYPE_FAULT_CC:
        return ContinuityCell.decode(cell)
    raise OamFormatError(f"unsupported OAM type/function 0x{type_byte:02x}")


class ContinuityCheckSource:
    """Emits one CC cell per period on a management VC.

    ``inject`` is any callable accepting an :class:`AtmCell`; for a
    NIC use ``nic.inject_cell``.  The source is a plain sim process:
    ``start()`` launches it, ``stop()`` retires it after the pending
    tick.
    """

    def __init__(
        self,
        sim,
        inject: Callable[[AtmCell], object],
        vc: VcAddress,
        period: float,
        source_id: bytes = bytes(_SOURCE_ID_SIZE),
    ) -> None:
        if period <= 0:
            raise ValueError("CC period must be positive")
        self.sim = sim
        self.inject = inject
        self.vc = vc
        self.period = period
        self.source_id = source_id
        self.cells_sent = 0
        self._sequence = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.process(self._pump())

    def stop(self) -> None:
        self._running = False

    def _pump(self):
        while self._running:
            cell = ContinuityCell(self.vc, self._sequence, self.source_id).encode()
            self._sequence = (self._sequence + 1) & 0xFFFFFFFF
            self.cells_sent += 1
            self.inject(cell)
            yield self.sim.timeout(self.period)


class ContinuityCheckSink:
    """Sliding-window loss-of-continuity detector.

    Call :meth:`observe` whenever a monitored cell arrives.  A
    watchdog process declares LOC exactly ``silence`` seconds after
    the last observation (so detection lag is bounded by the silence
    window plus one source period), and the first observation after
    LOC clears it.
    """

    def __init__(
        self,
        sim,
        silence: float,
        on_loc: Optional[Callable[[float], None]] = None,
        on_resume: Optional[Callable[[float], None]] = None,
        name: str = "cc-sink",
    ) -> None:
        if silence <= 0:
            raise ValueError("CC silence window must be positive")
        self.sim = sim
        self.silence = silence
        self.on_loc = on_loc
        self.on_resume = on_resume
        self.name = name
        self.cells_seen = 0
        self.loc_events = 0
        self.resumptions = 0
        self.in_loc = False
        self._last_seen = 0.0
        self._running = False

    def start(self) -> None:
        """Arm the watchdog; the grace period starts at the current time."""
        if self._running:
            return
        self._running = True
        self._last_seen = self.sim.now
        self.sim.process(self._watchdog())

    def stop(self) -> None:
        self._running = False

    def observe(self, cell: Optional[ContinuityCell] = None) -> None:
        """Record one heartbeat (or any other proof of continuity)."""
        self.cells_seen += 1
        self._last_seen = self.sim.now
        if self.in_loc:
            self.in_loc = False
            self.resumptions += 1
            if self.on_resume is not None:
                self.on_resume(self.sim.now)

    def _watchdog(self):
        while self._running:
            deadline = self._last_seen + self.silence
            if self.sim.now >= deadline:
                if not self.in_loc:
                    self.in_loc = True
                    self.loc_events += 1
                    if self.on_loc is not None:
                        self.on_loc(self.sim.now)
                yield self.sim.timeout(self.silence)
            else:
                yield self.sim.timeout(deadline - self.sim.now)

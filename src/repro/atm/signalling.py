"""Signalling-lite: out-of-band call control on the well-known VCI 5.

ATM signalling (the lineage that became Q.93B/Q.2931) is *out of band*:
connection-control messages travel on their own reserved channel, and
user VCs exist only after a SETUP/CONNECT handshake installed them at
both ends.  This module implements a deliberately small but complete
version of that discipline:

- four messages -- SETUP, CONNECT, RELEASE, RELEASE_COMPLETE -- with a
  fixed binary encoding carried as AAL5 SDUs on VPI 0 / VCI 5;
- a per-endpoint :class:`SignallingAgent` with call-reference
  allocation and a caller/callee state machine
  (IDLE -> CALL_INITIATED -> ACTIVE -> RELEASING -> RELEASED);
- Q.2931's call-reference flag: both ends number their calls from 1,
  so a call is known by its reference *and* the side that allocated
  it, and every message says which side that was;
- callee-side admission policy via a callback, and automatic VC
  allocation out of the callee's table (the address travels back in
  the CONNECT);
- optional retransmission timers (:class:`SignallingTimers`) in the
  spirit of Q.2931's T303/T308: a lost SETUP or RELEASE is resent on
  a capped exponential backoff, and after ``max_retries``
  retransmissions the call fails *terminally* -- the caller's
  ``connected`` event raises :class:`CallTimeout` (a
  :class:`CallRefused`) instead of hanging forever.

The agents run over the same data path as user traffic, so a SETUP
really is segmented into cells, crosses the link, and pays the engine
budgets -- call-setup latency is therefore a measurable quantity.
Backoff jitter is drawn from a named :class:`~repro.sim.random.RandomStreams`
stream, so retransmission schedules are a pure function of the seed.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.atm.addressing import VCI_SIGNALLING, VcAddress
from repro.sim.core import Event, Simulator
from repro.sim.monitor import Counter
from repro.sim.random import RandomStreams

SIGNALLING_VC = VcAddress(0, VCI_SIGNALLING)

_MESSAGE_SIZE = 18
_MAGIC = 0x5A
#: The call-reference flag: the top bit of the 4-byte reference field.
_CALL_REF_FLAG = 1 << 31


class MessageType(enum.IntEnum):
    SETUP = 1
    CONNECT = 2
    RELEASE = 3
    RELEASE_COMPLETE = 4


class CallState(enum.Enum):
    IDLE = "idle"
    CALL_INITIATED = "call-initiated"  #: caller sent SETUP
    ACTIVE = "active"  #: CONNECT exchanged, user VC open
    RELEASING = "releasing"  #: RELEASE sent, awaiting completion
    RELEASED = "released"  #: release handshake (or forced clear) done
    REFUSED = "refused"  #: far end rejected the SETUP
    FAILED = "failed"  #: retry budget exhausted, call abandoned

    @property
    def terminal(self) -> bool:
        """True for states a finished call may legitimately rest in."""
        return self in (CallState.RELEASED, CallState.REFUSED, CallState.FAILED)


@dataclass(frozen=True)
class SignallingTimers:
    """Retransmission policy for SETUP (T303-style) and RELEASE (T308-style).

    The n-th retransmission waits ``min(base * backoff**n, cap)``
    seconds, scaled by a jitter factor in ``[1-jitter, 1+jitter]``
    drawn from the agent's random stream.  After ``max_retries``
    retransmissions plus one final wait, the call is abandoned.
    """

    t303: float = 1e-3  #: initial SETUP retransmission interval (s)
    t308: float = 1e-3  #: initial RELEASE retransmission interval (s)
    backoff: float = 2.0  #: exponential growth factor per attempt
    cap: float = 8e-3  #: ceiling on any single interval (s)
    max_retries: int = 4  #: retransmissions before giving up
    jitter: float = 0.1  #: fractional schedule jitter, 0 disables

    def __post_init__(self) -> None:
        if self.t303 <= 0 or self.t308 <= 0:
            raise ValueError("timer bases must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter fraction must be in [0, 1)")

    def worst_case_total(self) -> float:
        """Upper bound on the life of a timer chain (for sim drain sizing)."""
        total = sum(
            min(self.t303 * self.backoff**n, self.cap)
            for n in range(self.max_retries + 1)
        )
        return total * (1.0 + self.jitter)


def backoff_schedule(timers: SignallingTimers, base: float, rng=None) -> Tuple[float, ...]:
    """The waits before retransmissions 1..max_retries plus the give-up wait."""
    delays = []
    for attempt in range(timers.max_retries + 1):
        delay = min(base * timers.backoff**attempt, timers.cap)
        if timers.jitter and rng is not None:
            delay *= 1.0 + timers.jitter * (2.0 * rng.random() - 1.0)
        delays.append(delay)
    return tuple(delays)


@dataclass(frozen=True)
class SignallingMessage:
    """One call-control message.

    Wire format (18 bytes)::

        | magic (1) | type (1) | flag (1 bit) call_ref (31 bits) |
        | vpi (2) | vci (2) | peak_rate_bps (8)                  |

    *call_ref_flag* is Q.2931's call-reference flag: set on messages
    from the side that did not allocate *call_ref*, so the receiver
    tells its own calls from the far end's with the same number.
    """

    message_type: MessageType
    call_ref: int
    vpi: int = 0
    vci: int = 0
    peak_rate_bps: int = 0
    call_ref_flag: bool = False

    def encode(self) -> bytes:
        if not 0 <= self.call_ref < _CALL_REF_FLAG:
            raise ValueError(f"call reference {self.call_ref} needs 31 bits")
        flag = _CALL_REF_FLAG if self.call_ref_flag else 0
        return (
            bytes((_MAGIC, int(self.message_type)))
            + (flag | self.call_ref).to_bytes(4, "big")
            + self.vpi.to_bytes(2, "big")
            + self.vci.to_bytes(2, "big")
            + self.peak_rate_bps.to_bytes(8, "big")
        )

    @classmethod
    def decode(cls, data: bytes) -> "SignallingMessage":
        if len(data) != _MESSAGE_SIZE:
            raise ValueError(f"signalling message is {_MESSAGE_SIZE} bytes")
        if data[0] != _MAGIC:
            raise ValueError("bad signalling magic byte")
        reference = int.from_bytes(data[2:6], "big")
        return cls(
            message_type=MessageType(data[1]),
            call_ref=reference & (_CALL_REF_FLAG - 1),
            vpi=int.from_bytes(data[6:8], "big"),
            vci=int.from_bytes(data[8:10], "big"),
            peak_rate_bps=int.from_bytes(data[10:18], "big"),
            call_ref_flag=reference >= _CALL_REF_FLAG,
        )


@dataclass
class Call:
    """One call's local state."""

    call_ref: int
    state: CallState
    is_caller: bool
    address: Optional[VcAddress] = None
    peak_rate_bps: Optional[float] = None
    #: Fires with the user VcAddress on CONNECT (caller side).
    connected: Optional[Event] = None
    #: Fires when the release handshake completes.
    released: Optional[Event] = None
    #: Retransmissions spent on this call so far.
    retries: int = 0


class SignallingAgent:
    """Call control for one interface endpoint.

    Construction opens the signalling channel on the interface and
    hooks its receive path.  Typical use::

        agent_a = SignallingAgent(sim, nic_a)
        agent_b = SignallingAgent(sim, nic_b)

        def caller():
            call = agent_a.place_call(peak_rate_bps=20e6)
            address = yield call.connected     # VC now open on both ends
            yield nic_a.send(address, b"data on a signalled VC")

    The callee accepts by default; install ``on_setup`` to apply
    admission control (return False to refuse -- the caller's
    ``connected`` event then fails with :class:`CallRefused`).

    Pass ``timers=SignallingTimers()`` to arm retransmission: lost
    SETUP/RELEASE messages are resent on a capped exponential backoff
    and exhausted calls end in a *terminal* state instead of hanging.
    Without timers the agent behaves exactly as the lossless-path
    original (no background processes, no extra traffic).
    """

    def __init__(
        self,
        sim: Simulator,
        interface,
        on_setup: Optional[Callable[[SignallingMessage], bool]] = None,
        name: str = "",
        timers: Optional[SignallingTimers] = None,
        streams: Optional[RandomStreams] = None,
        shape_data_vcs: bool = True,
    ) -> None:
        self.sim = sim
        self.interface = interface
        self.on_setup = on_setup
        self.name = name or f"{interface.name}.sig"
        self.timers = timers
        #: When True (the default) a call's VC is opened shaped to its
        #: contract peak, so the transmit engine paces it (CBR-style).
        #: When False the contract still rides the SETUP -- admission
        #: control books it -- but the VC is opened unshaped: the
        #: best-effort data service a host offering thousands of
        #: low-rate sessions needs, since the single-engine pacer would
        #: otherwise head-of-line block the interface (docs/SCALE.md).
        self.shape_data_vcs = shape_data_vcs
        self._rng = (streams or RandomStreams(0)).stream(f"{self.name}.backoff")
        #: The calls not yet in a terminal state, in creation order,
        #: keyed by (call reference, placed here): a call leaves when it
        #: is released, refused or abandoned.
        self._calls: Dict[Tuple[int, bool], Call] = {}
        self._call_refs = itertools.count(1)
        self.messages_sent = Counter(f"{self.name}.sent")
        self.messages_received = Counter(f"{self.name}.received")
        self.calls_refused = Counter(f"{self.name}.refused")
        self.setup_retransmits = Counter(f"{self.name}.setup_retransmits")
        self.release_retransmits = Counter(f"{self.name}.release_retransmits")
        self.calls_timed_out = Counter(f"{self.name}.timed_out")
        self.calls_restored = Counter(f"{self.name}.restored")
        self.setup_duplicates = Counter(f"{self.name}.setup_duplicates")
        #: Optional TraceRecorder for retry/timeout taxonomy events,
        #: copied from the simulator.
        self.trace = sim.trace
        #: Fired with the Call whenever one becomes ACTIVE (either
        #: side) -- the recovery plane uses it to protect the VC.
        self.on_call_active: Optional[Callable[[Call], None]] = None
        #: Fired with the Call whenever one clears (graceful handshake
        #: or timer-forced) -- admission control uses it to drain the
        #: booked budgets (see repro.tm.cac).
        self.on_call_released: Optional[Callable[[Call], None]] = None
        self._handlers: Dict[MessageType, Callable[[SignallingMessage], None]] = {
            MessageType.SETUP: self._on_setup,
            MessageType.CONNECT: self._on_connect,
            MessageType.RELEASE: self._on_release,
            MessageType.RELEASE_COMPLETE: self._on_release_complete,
        }

        self._open_signalling_channel()
        sim.components.append(self)

    # -- wiring ------------------------------------------------------------

    def _open_signalling_channel(self) -> None:
        nic = self.interface
        if SIGNALLING_VC not in nic.vc_table:
            nic.vc_table.open_reserved(SIGNALLING_VC, name="signalling")
            if nic.cam is not None:
                nic.cam.install(
                    SIGNALLING_VC, nic.vc_table.lookup(SIGNALLING_VC)
                )
                # Losing this entry to LRU pressure would sever the
                # control plane, so exempt it from displacement.
                nic.cam.pin(SIGNALLING_VC)
        #: Non-signalling PDUs are forwarded here; assign this (not
        #: ``interface.on_pdu``, which the agent now owns) to receive
        #: user traffic.  Pre-existing handlers are preserved.
        self.on_user_pdu: Optional[Callable] = nic.on_pdu
        nic.on_pdu = self._demux

    def _demux(self, completion) -> None:
        if completion.vc == SIGNALLING_VC:
            self._handle(SignallingMessage.decode(completion.sdu))
        elif self.on_user_pdu is not None:
            self.on_user_pdu(completion)

    def _send(
        self,
        message_type: MessageType,
        call_ref: int,
        placed_here: bool,
        **fields: int,
    ) -> None:
        """Send a message about call *call_ref*, flagged for its side."""
        message = SignallingMessage(
            message_type, call_ref, call_ref_flag=not placed_here, **fields
        )
        self.messages_sent.increment()
        self.interface.send(SIGNALLING_VC, message.encode())

    def _emit(self, name: str, **args) -> None:
        if self.trace is not None:
            self.trace.emit(name, actor=self.name, **args)

    # -- caller side ---------------------------------------------------------

    def place_call(self, peak_rate_bps: Optional[float] = None) -> Call:
        """Initiate a call; yield ``call.connected`` for the VC address."""
        call_ref = next(self._call_refs)
        call = Call(
            call_ref=call_ref,
            state=CallState.CALL_INITIATED,
            is_caller=True,
            peak_rate_bps=peak_rate_bps,
            connected=self.sim.event(),
            released=self.sim.event(),
        )
        self._calls[call_ref, True] = call
        self._send(
            MessageType.SETUP,
            call_ref,
            placed_here=True,
            peak_rate_bps=int(peak_rate_bps or 0),
        )
        if self.timers is not None:
            self.sim.process(self._setup_timer(call))
        return call

    def release_call(self, call: Call) -> Event:
        """Tear the call down; yield the returned event for completion."""
        if call.state is not CallState.ACTIVE:
            raise ValueError(f"call {call.call_ref} is not active")
        call.state = CallState.RELEASING
        self._send(MessageType.RELEASE, call.call_ref, placed_here=call.is_caller)
        if self.timers is not None:
            self.sim.process(self._release_timer(call))
        return call.released

    def reestablish(self, call: Call) -> Call:
        """Place a replacement call carrying the same traffic contract.

        Used by the recovery plane to restore alarmed or timed-out
        calls once their link supervisor returns to UP.
        """
        replacement = self.place_call(peak_rate_bps=call.peak_rate_bps)
        self.calls_restored.increment()
        self._emit(
            "sig.call.restored",
            old_call_ref=call.call_ref,
            new_call_ref=replacement.call_ref,
        )
        return replacement

    def call_for(self, call_ref: int, placed_here: bool) -> Optional[Call]:
        """The unresolved call numbered *call_ref* that this agent
        placed (*placed_here*) or the far end placed, if any."""
        return self._calls.get((call_ref, placed_here))

    @property
    def active_calls(self) -> int:
        return sum(
            1 for c in self._calls.values() if c.state is CallState.ACTIVE
        )

    @property
    def unresolved_calls(self) -> List[Call]:
        """Calls stuck mid-handshake: neither ACTIVE nor terminal."""
        pending = (CallState.IDLE, CallState.CALL_INITIATED, CallState.RELEASING)
        return [c for c in self._calls.values() if c.state in pending]

    # -- retransmission timers ----------------------------------------------

    def _setup_timer(self, call: Call):
        schedule = backoff_schedule(self.timers, self.timers.t303, self._rng)
        for attempt, delay in enumerate(schedule, start=1):
            yield self.sim.timeout(delay)
            if call.state is not CallState.CALL_INITIATED:
                return  # resolved (connected, refused, or released)
            if attempt > self.timers.max_retries:
                break
            call.retries = attempt
            self.setup_retransmits.increment()
            self._emit(
                "sig.retransmit",
                message="SETUP",
                call_ref=call.call_ref,
                attempt=attempt,
            )
            self._send(
                MessageType.SETUP,
                call.call_ref,
                placed_here=True,
                peak_rate_bps=int(call.peak_rate_bps or 0),
            )
        if call.state is not CallState.CALL_INITIATED:
            return
        self._calls.pop((call.call_ref, True), None)
        call.state = CallState.FAILED
        self.calls_timed_out.increment()
        self._emit("sig.call.timeout", message="SETUP", call_ref=call.call_ref)
        if call.connected is not None and not call.connected.triggered:
            call.connected.fail(CallTimeout(call.call_ref))

    def _release_timer(self, call: Call):
        schedule = backoff_schedule(self.timers, self.timers.t308, self._rng)
        for attempt, delay in enumerate(schedule, start=1):
            yield self.sim.timeout(delay)
            if call.state is not CallState.RELEASING:
                return
            if attempt > self.timers.max_retries:
                break
            call.retries = attempt
            self.release_retransmits.increment()
            self._emit(
                "sig.retransmit",
                message="RELEASE",
                call_ref=call.call_ref,
                attempt=attempt,
            )
            self._send(
                MessageType.RELEASE, call.call_ref, placed_here=call.is_caller
            )
        if call.state is not CallState.RELEASING:
            return
        # Forced local clear: the peer never confirmed, release anyway.
        self._calls.pop((call.call_ref, call.is_caller), None)
        self.calls_timed_out.increment()
        self._emit("sig.call.timeout", message="RELEASE", call_ref=call.call_ref)
        self._clear(call)

    def _clear(self, call: Call) -> None:
        """The call is released: close its VC, tell the hook, fire
        ``released``."""
        call.state = CallState.RELEASED
        if call.address is not None and call.address in self.interface.vc_table:
            self.interface.close_vc(call.address)
        if self.on_call_released is not None:
            self.on_call_released(call)
        if call.released is not None and not call.released.triggered:
            call.released.trigger(None)

    # -- message handling ---------------------------------------------------------

    def _handle(self, message: SignallingMessage) -> None:
        self.messages_received.increment()
        self._handlers[message.message_type](message)

    # A message's flag is set when its sender did not allocate the
    # reference, that is, when the call was placed here: the key of
    # the call it is about is (call_ref, call_ref_flag).  A SETUP
    # always comes from the side that allocated its reference.

    def _on_setup(self, message: SignallingMessage) -> None:
        key = (message.call_ref, False)
        existing = self._calls.get(key)
        if existing is not None:
            # Retransmitted SETUP for a call we already accepted: the
            # CONNECT was lost, so repeat it for the same VC.
            if existing.state is CallState.ACTIVE:
                self.setup_duplicates.increment()
                self._send(
                    MessageType.CONNECT,
                    message.call_ref,
                    placed_here=False,
                    vpi=existing.address.vpi,
                    vci=existing.address.vci,
                )
            return
        if self.on_setup is not None and not self.on_setup(message):
            self.calls_refused.increment()
            self._send(
                MessageType.RELEASE_COMPLETE, message.call_ref, placed_here=False
            )
            return
        peak = float(message.peak_rate_bps) or None
        vc = self.interface.open_vc(
            peak_rate_bps=peak if self.shape_data_vcs else None
        )
        call = Call(
            call_ref=message.call_ref,
            state=CallState.ACTIVE,
            is_caller=False,
            address=vc.address,
            peak_rate_bps=peak,
            released=self.sim.event(),
        )
        self._calls[key] = call
        if self.on_call_active is not None:
            self.on_call_active(call)
        self._send(
            MessageType.CONNECT,
            message.call_ref,
            placed_here=False,
            vpi=vc.address.vpi,
            vci=vc.address.vci,
        )

    def _on_connect(self, message: SignallingMessage) -> None:
        call = self._calls.get((message.call_ref, message.call_ref_flag))
        if call is None or call.state is not CallState.CALL_INITIATED:
            return
        address = VcAddress(message.vpi, message.vci)
        if address in self.interface.vc_table:
            # Glare: both ends answered a SETUP at once, each with its
            # first free VC, so the far end picked one in use here.
            # Refuse the call and clear the far end's half.
            del self._calls[message.call_ref, True]
            call.state = CallState.REFUSED
            self._send(MessageType.RELEASE, call.call_ref, placed_here=True)
            call.connected.fail(CallRefused(call.call_ref))
            return
        self.interface.open_vc(
            address=address,
            peak_rate_bps=(
                call.peak_rate_bps if self.shape_data_vcs else None
            ),
        )
        call.address = address
        call.state = CallState.ACTIVE
        if self.on_call_active is not None:
            self.on_call_active(call)
        call.connected.trigger(address)

    def _on_release(self, message: SignallingMessage) -> None:
        call = self._calls.pop((message.call_ref, message.call_ref_flag), None)
        if call is not None:
            self._clear(call)
        self._send(
            MessageType.RELEASE_COMPLETE,
            message.call_ref,
            placed_here=message.call_ref_flag,
        )

    def _on_release_complete(self, message: SignallingMessage) -> None:
        call = self._calls.pop((message.call_ref, message.call_ref_flag), None)
        if call is None:
            return
        if call.state is CallState.CALL_INITIATED:
            # Refusal: the far end answered SETUP with RELEASE_COMPLETE.
            call.state = CallState.REFUSED
            call.connected.fail(CallRefused(call.call_ref))
            return
        self._clear(call)


class CallRefused(Exception):
    """The callee's admission policy rejected the SETUP."""


class CallTimeout(CallRefused):
    """The retry budget ran out before the far end answered."""

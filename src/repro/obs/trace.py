"""Cell-level lifecycle tracing: record, query, export.

The paper's evaluation is an instruction-level account of where every
cycle goes; this module gives the reproduction the matching *event*
account of where every cell goes.  A :class:`TraceRecorder` collects
timestamped :class:`TraceEvent` records as cells and PDUs move through
the pipeline -- posted, staged, segmented, framed, carried, admitted,
classified, reassembled, DMA'd, interrupted, delivered, or dropped with
a named reason -- and exports them as JSON-lines or as Chrome
``trace_event`` JSON that loads directly into Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Instrumentation contract
------------------------

Every instrumented component (TX/RX engines, FIFOs, CAM, links, DMA,
interrupt controller, engine clocks, ports and the control-plane
agents) carries a ``trace`` attribute copied from its simulator when it
is built: a recorder inside :func:`repro.obs.observe`, else ``None``.
The hot paths guard each emission with a single ``if self.trace is not
None`` test, so an unobserved simulation pays one attribute load +
comparison per would-be event.

A recorder keeps the first :data:`EVENT_CAP` events and only counts
the rest (:attr:`TraceRecorder.overflow`), so a full-size run cannot
exhaust memory; its exports end with a ``trace.overflow`` record of
that count.

Identity
--------

PDUs are identified by the transmit descriptor's ``pdu_id`` (see
:mod:`repro.nic.descriptors`); cells are tagged at segmentation time
with a monotonically increasing ``cell_id`` in ``cell.meta`` and keep
it across the wire, so a single id follows one cell from the transmit
FIFO to its receive-side fate.  Cells that originate outside a traced
transmit engine (synthetic wire sources) simply carry no id.

Event taxonomy
--------------

Every event name the pipeline can emit is declared in
:data:`EVENT_TAXONOMY` (name -> description) and every drop reason in
:data:`DROP_REASONS`; ``docs/OBSERVABILITY.md`` is the narrative
version.  Drop events share the names ``cell.drop`` / ``pdu.drop``
with a ``reason`` argument drawn from :data:`DROP_REASONS`, so "every
cell death has a named cause" is a greppable property of a trace.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Union

# ---------------------------------------------------------------------------
# taxonomy
# ---------------------------------------------------------------------------

#: Every event name the instrumented pipeline can emit.
EVENT_TAXONOMY: Dict[str, str] = {
    # -- transmit path ----------------------------------------------------
    "tx.pdu.posted": "TX engine took a descriptor from the host ring",
    "tx.pdu.staged": "PDU DMA'd from host memory into adaptor buffer memory",
    "tx.pdu.bufstall": "TX engine stalled waiting for adaptor buffer memory",
    "tx.cell.sar": "segmentation produced one cell (position annotated)",
    "tx.cell.paced": "cell delayed by the VC's peak-rate pacing contract",
    "tx.pdu.done": "completion status written back to the host ring",
    # -- FIFOs (both directions; the actor names the FIFO) ----------------
    "fifo.enq": "cell accepted into a cell FIFO (occupancy annotated)",
    "fifo.deq": "cell popped from a cell FIFO (occupancy annotated)",
    # -- the wire ---------------------------------------------------------
    "link.cell.sent": "cell began serializing onto the link",
    "link.cell.delivered": "cell arrived at the link's sink",
    # -- receive path -----------------------------------------------------
    "rx.frame.epd": "EPD refused a whole frame at admission (pressure)",
    "rx.frame.truncated": "PPD began discarding a holed frame's remainder",
    "rx.cam.hit": "CAM matched the cell's VC to a reassembly context",
    "rx.cam.miss": "CAM had no entry for the cell's VC",
    "rx.cam.evict": "LRU policy displaced an entry to program a new VC",
    "rx.cell.oam": "management cell consumed by the OAM unit",
    "rx.cell.sar": "cell absorbed into reassembly state (position annotated)",
    "rx.pdu.done": "reassembly completed a PDU (CRC/length verdict ok)",
    # -- DMA (both directions; the actor names the engine) ----------------
    "dma.start": "a DMA engine began moving bytes across the host bus",
    "dma.done": "the DMA transfer completed (latency annotated)",
    # -- host -------------------------------------------------------------
    "irq.raised": "device asserted the interrupt line",
    "irq.delivered": "interrupt delivered to the CPU (batch size annotated)",
    "host.pdu.delivered": "OS receive path done; user callback ran",
    # -- engine execution (exported as Perfetto duration slices) ----------
    "engine.work": "engine executed a cycle budget (tag + cycles annotated)",
    "engine.stall": "engine absorbed an injected stall window",
    # -- drops (reason argument from DROP_REASONS) ------------------------
    "cell.drop": "a cell died; 'reason' names the cause",
    "pdu.drop": "a PDU died; 'reason' names the cause",
    # -- reassembly timers ------------------------------------------------
    "rx.context.evicted": "reassembly context evicted by the quota",
    # -- fault management (repro.resilience) ------------------------------
    "oam.cc.loc": "continuity-check sink declared loss of continuity",
    "oam.cc.resumed": "continuity restored at the sink after LOC",
    "oam.alarm.raised": "supervisor injected an alarm cell (kind annotated)",
    "oam.alarm.received": "far-end AIS/RDI alarm cell consumed (kind annotated)",
    "oam.alarm.cleared": "alarm condition cleared by the supervisor",
    "oam.ping.timeout": "loopback correlation reaped without a reply",
    "link.supervisor.state": "link supervisor transition (from/to annotated)",
    # -- signalling recovery ----------------------------------------------
    "sig.retransmit": "signalling message retransmitted (type + attempt annotated)",
    "sig.call.timeout": "call abandoned after retry exhaustion",
    "sig.call.restored": "supervisor-driven re-establishment of an alarmed call",
    # -- traffic management (repro.tm; see docs/TRAFFIC.md) ---------------
    "rm.cell.sent": "ABR source emitted a forward RM cell (CCR annotated)",
    "rm.cell.marked": "switch stamped an explicit rate into an RM cell",
    "rm.cell.turnaround": "destination reflected a forward RM cell (CI annotated)",
    "abr.rate.update": "ABR source adjusted its allowed cell rate",
    "port.efci": "output port set EFCI on a user cell (queue pressure)",
    "cac.admit": "call admission booked a SETUP's traffic contract",
    "cac.reject": "call admission refused a SETUP (cause annotated)",
    # -- the recorder itself (written at export, never emitted) -----------
    "trace.overflow": "events past the recorder's cap, counted not kept",
}

#: Every value the ``reason`` argument of a drop event can take.  The
#: first group mirrors the conservation ledger of
#: :mod:`repro.faults.audit`; the second group is the reassembly
#: failure taxonomy of :class:`repro.aal.interface.ReassemblyFailure`.
DROP_REASONS: Dict[str, str] = {
    "link_lost": "dropped by the link's loss model",
    "hec": "uncorrectable header rejected by the framer's HEC check",
    "epd": "refused at admission by Early Packet Discard",
    "ppd": "discarded mid-frame by Partial Packet Discard",
    "fifo_overflow": "hard receive-FIFO overflow",
    "unknown_vc": "cell for a VC never opened (CAM/table miss)",
    "no_adaptor_buffer": "adaptor buffer memory exhausted",
    "no_host_buffer": "host buffer pool exhausted at completion",
    # reassembly verdicts (PDU-level, cells counted with the PDU)
    "crc": "trailer CRC mismatch",
    "length": "trailer length field inconsistent",
    "sequence": "AAL3/4 sequence-number discontinuity",
    "tag-mismatch": "AAL3/4 BTag != ETag",
    "protocol": "segment-type violation",
    "oversize": "PDU exceeded the maximum reassembly size",
    "timeout": "reassembly timer expired on a partial PDU",
    "quota": "context evicted to honour the context quota",
    # traffic management (switch output ports; repro.tm)
    "clp": "CLP=1 cell discarded first under output-port pressure",
    "port_full": "output-port buffer full (tail drop)",
}


#: The drop events: their ``reason`` must be a :data:`DROP_REASONS` key.
_DROP_EVENTS = frozenset(("cell.drop", "pdu.drop"))

#: Events one recorder keeps; those after it are counted, not kept.
EVENT_CAP = 500_000


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped occurrence in a cell's or PDU's life."""

    ts: float  #: simulation time, seconds
    name: str  #: an :data:`EVENT_TAXONOMY` key
    actor: str  #: the component that emitted it (engine, FIFO, link...)
    cell_id: Optional[int] = None
    pdu_id: Optional[int] = None
    vc: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def to_json(self, sim: Optional[str] = None) -> str:
        """One JSON line; *sim* names the simulator's track, if any."""
        record: Dict[str, Any] = {"ts": self.ts, "name": self.name}
        if sim is not None:
            record["sim"] = sim
        if self.actor:
            record["actor"] = self.actor
        if self.cell_id is not None:
            record["cell_id"] = self.cell_id
        if self.pdu_id is not None:
            record["pdu_id"] = self.pdu_id
        if self.vc is not None:
            record["vc"] = self.vc
        if self.args:
            record["args"] = self.args
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        record = json.loads(line)
        return cls(
            ts=record["ts"],
            name=record["name"],
            actor=record.get("actor", ""),
            cell_id=record.get("cell_id"),
            pdu_id=record.get("pdu_id"),
            vc=record.get("vc"),
            args=record.get("args", {}),
        )


# ---------------------------------------------------------------------------
# recorder
# ---------------------------------------------------------------------------


class TraceRecorder:
    """Collects :class:`TraceEvent` records from instrumented components.

    :func:`repro.obs.observe` gives every simulator built inside it a
    recorder, which each component copies when it is built; query the
    events in memory or export them::

        with observe() as observation:
            ...build and run...
        recorder = observation.views[0].recorder
        recorder.export_chrome("trace.json")     # open in Perfetto
        recorder.export_jsonl("trace.jsonl")     # grep/jq-friendly

    The recorder is deliberately dumb on the hot path: one taxonomy
    test, one cap test, one object construction, one list append per
    event.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.events: List[TraceEvent] = []
        #: Events emitted after the first :data:`EVENT_CAP`: counted,
        #: not kept.
        self.overflow = 0
        self._cell_ids = itertools.count(1)

    # -- recording --------------------------------------------------------

    def emit(
        self,
        name: str,
        actor: str = "",
        cell=None,
        cell_id: Optional[int] = None,
        pdu_id: Optional[int] = None,
        vc=None,
        **args: Any,
    ) -> None:
        """Record one event (past the cap, count it).

        *cell* may be an :class:`~repro.atm.cell.AtmCell`; its ``meta``
        ids and VC fill any identity fields not given explicitly.
        Events are stamped with the current simulation time.  An
        undeclared *name*, or a drop event whose ``reason`` is not a
        :data:`DROP_REASONS` key, raises :class:`ValueError`.
        """
        if name not in EVENT_TAXONOMY:
            raise ValueError(
                f"{name!r} is not in EVENT_TAXONOMY; declare new event "
                "names there (and in docs/OBSERVABILITY.md) first"
            )
        if name in _DROP_EVENTS and args.get("reason") not in DROP_REASONS:
            raise ValueError(
                f"{name} reason {args.get('reason')!r} is not in "
                "DROP_REASONS; declare new reasons there (and in "
                "docs/OBSERVABILITY.md) first"
            )
        if len(self.events) >= EVENT_CAP:
            self.overflow += 1
            return
        if cell is not None:
            meta = cell.meta
            if cell_id is None:
                cell_id = meta.get("cell_id")
            if pdu_id is None:
                pdu_id = meta.get("pdu_id")
            if vc is None:
                vc = f"{cell.vpi}.{cell.vci}"
        self.events.append(
            TraceEvent(
                ts=self.sim.now,
                name=name,
                actor=actor,
                cell_id=cell_id,
                pdu_id=pdu_id,
                vc=None if vc is None else str(vc),
                args=args,
            )
        )

    def tag_cell(self, cell) -> int:
        """Assign (or return) the cell's trace identity."""
        cell_id = cell.meta.get("cell_id")
        if cell_id is None:
            cell_id = next(self._cell_ids)
            cell.meta["cell_id"] = cell_id
        return cell_id

    # -- lifecycle --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    # -- queries ----------------------------------------------------------

    def by_name(self, name: str) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.name == name]

    def for_cell(self, cell_id: int) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.cell_id == cell_id]

    def for_pdu(self, pdu_id: int) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.pdu_id == pdu_id]

    def drop_reasons(self) -> Dict[str, int]:
        """Histogram of drop causes seen in the trace (cells + PDUs)."""
        reasons: Dict[str, int] = {}
        for ev in self.events:
            if ev.name in ("cell.drop", "pdu.drop"):
                why = ev.args.get("reason", "unnamed")
                reasons[why] = reasons.get(why, 0) + 1
        return reasons

    # -- exporters --------------------------------------------------------

    def exported(self) -> Iterator[TraceEvent]:
        """The kept events, then a ``trace.overflow`` record if any were not."""
        yield from self.events
        if self.overflow:
            yield TraceEvent(
                ts=self.sim.now,
                name="trace.overflow",
                actor="recorder",
                args={"events": self.overflow},
            )

    def export_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """One JSON object per line; returns the record count written."""
        return write_jsonl(self.exported(), destination)

    def export_chrome(self, destination: Union[str, IO[str]]) -> int:
        """Chrome ``trace_event`` JSON, loadable by Perfetto."""
        return write_chrome_trace(self.exported(), destination)


# ---------------------------------------------------------------------------
# serialization (usable on any iterable of events)
# ---------------------------------------------------------------------------


def _open_sink(destination: Union[str, IO[str]]):
    if isinstance(destination, str):
        return open(destination, "w", encoding="utf-8"), True
    return destination, False


def write_jsonl(
    events: Iterable[TraceEvent], destination: Union[str, IO[str]]
) -> int:
    """One JSON object per line; returns the event count written."""
    with TraceWriter(destination, chrome=False) as writer:
        return writer.add(None, events)


def read_jsonl(source: Union[str, IO[str]]) -> List[TraceEvent]:
    """Parse a JSONL trace back into :class:`TraceEvent` records."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = source.readlines()
    return [TraceEvent.from_json(line) for line in lines if line.strip()]


def write_chrome_trace(
    events: Iterable[TraceEvent], destination: Union[str, IO[str]]
) -> int:
    """Render events as one process in the Chrome ``trace_event`` format."""
    with TraceWriter(destination, chrome=True) as writer:
        return writer.add("sim", events)


class TraceWriter:
    """Streams traces, one track per simulator, into one file.

    With *chrome* false the file is JSON lines, each tagged with its
    track's name under ``"sim"`` (untagged for a ``None`` track).
    With *chrome* true it is a Chrome ``trace_event`` document in
    which every track is one process, and within it:

    - every actor becomes a named *thread* (one swimlane per component);
    - ``engine.work`` events carry a ``dur`` argument and become
      complete slices (``ph: "X"``), so engine execution renders as
      nested duration bars;
    - ``fifo.enq``/``fifo.deq`` additionally emit a counter track
      (``ph: "C"``) of the FIFO's occupancy;
    - everything else is an instant event (``ph: "i"``).

    Timestamps are exported in microseconds, the unit the format
    specifies.  Records are written as they are added, so a trace is
    never held in memory as one document.
    """

    def __init__(self, destination: Union[str, IO[str]], chrome: bool) -> None:
        self._sink, self._owned = _open_sink(destination)
        self.chrome = chrome
        self._pid = 0
        self._first = True
        if chrome:
            self._sink.write('{"traceEvents": [')

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def add(self, track: Optional[str], events: Iterable[TraceEvent]) -> int:
        """Write *events* as the track *track*; returns the count."""
        if not self.chrome:
            count = 0
            for ev in events:
                self._sink.write(ev.to_json(track))
                self._sink.write("\n")
                count += 1
            return count
        self._pid += 1
        pid = self._pid
        self._put(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": track}}
        )
        tids: Dict[str, int] = {}
        count = 0
        for ev in events:
            count += 1
            tid = tids.get(ev.actor)
            if tid is None:
                tid = tids[ev.actor] = len(tids) + 1
                self._put(
                    {"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": tid, "args": {"name": ev.actor or "sim"}}
                )
            ts_us = ev.ts * 1e6
            args: Dict[str, Any] = dict(ev.args)
            if ev.cell_id is not None:
                args["cell_id"] = ev.cell_id
            if ev.pdu_id is not None:
                args["pdu_id"] = ev.pdu_id
            if ev.vc is not None:
                args["vc"] = ev.vc
            if ev.name == "engine.work" and "dur" in ev.args:
                self._put(
                    {"name": str(args.get("tag", "work")), "cat": "engine",
                     "ph": "X", "ts": ts_us, "dur": ev.args["dur"] * 1e6,
                     "pid": pid, "tid": tid, "args": args}
                )
                continue
            self._put(
                {"name": ev.name, "cat": ev.name.split(".")[0], "ph": "i",
                 "ts": ts_us, "pid": pid, "tid": tid, "s": "t",
                 "args": args}
            )
            if ev.name in ("fifo.enq", "fifo.deq") and "occupancy" in ev.args:
                self._put(
                    {"name": f"{ev.actor} occupancy", "ph": "C",
                     "ts": ts_us, "pid": pid, "tid": tid,
                     "args": {"cells": ev.args["occupancy"]}}
                )
        return count

    def _put(self, record: Dict[str, Any]) -> None:
        if not self._first:
            self._sink.write(", ")
        self._first = False
        self._sink.write(json.dumps(record))

    def close(self) -> None:
        """Finish the document (and close a file this writer opened)."""
        if self._sink is None:
            return
        if self.chrome:
            self._sink.write(
                '], "displayTimeUnit": "ns", "otherData": {"source": '
                '"repro.obs.trace", "paper": "A Host-Network Interface '
                "Architecture for ATM (SIGCOMM '91)\"}}"
            )
        if self._owned:
            self._sink.close()
        self._sink = None

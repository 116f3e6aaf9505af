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
interrupt controller, engine clocks) carries a ``trace`` attribute that
defaults to ``None``.  The hot paths guard each emission with a single
``if self.trace is not None`` test, so an uninstrumented simulation
pays one attribute load + comparison per would-be event -- in practice
unmeasurable (see ``tests/test_obs.py``).  Attaching a recorder
with ``enabled=False`` additionally short-circuits inside
:meth:`TraceRecorder.emit`, so tracing can be toggled mid-run without
re-wiring.

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
from typing import Any, Dict, IO, Iterable, List, Optional, Union

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
    "no-context": "cell with no reassembly context",
    "quota": "context evicted to honour the context quota",
    # traffic management (switch output ports; repro.tm)
    "clp": "CLP=1 cell discarded first under output-port pressure",
    "port_full": "output-port buffer full (tail drop)",
}


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped occurrence in a cell's or PDU's life."""

    ts: float  #: simulation time, seconds
    name: str  #: an :data:`EVENT_TAXONOMY` key
    actor: str  #: the component that emitted it (engine, FIFO, link...)
    cell_id: Optional[int] = None
    pdu_id: Optional[int] = None
    vc: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        record: Dict[str, Any] = {"ts": self.ts, "name": self.name}
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

    Attach with :meth:`repro.nic.nic.HostNetworkInterface.attach_trace`
    (or by assigning any component's ``trace`` attribute), then query
    in memory or export::

        recorder = TraceRecorder(sim)
        nic.attach_trace(recorder)
        ...run...
        recorder.export_chrome("trace.json")     # open in Perfetto
        recorder.export_jsonl("trace.jsonl")     # grep/jq-friendly

    The recorder is deliberately dumb on the hot path: one ``enabled``
    test, one object construction, one list append per event.
    """

    def __init__(self, sim, enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        self.events: List[TraceEvent] = []
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
        """Record one event (no-op while disabled).

        *cell* may be an :class:`~repro.atm.cell.AtmCell`; its ``meta``
        ids and VC fill any identity fields not given explicitly.
        Events are stamped with the current simulation time.
        """
        if not self.enabled:
            return
        if name not in EVENT_TAXONOMY:
            raise ValueError(
                f"{name!r} is not in EVENT_TAXONOMY; declare new event "
                "names there (and in docs/OBSERVABILITY.md) first"
            )
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

    def clear(self) -> None:
        self.events.clear()

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

    def export_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """One JSON object per line; returns the event count written."""
        return write_jsonl(self.events, destination)

    def export_chrome(self, destination: Union[str, IO[str]]) -> int:
        """Chrome ``trace_event`` JSON, loadable by Perfetto."""
        return write_chrome_trace(self.events, destination)


# ---------------------------------------------------------------------------
# serialization helpers (usable on any iterable of events)
# ---------------------------------------------------------------------------


def _open_sink(destination: Union[str, IO[str]]):
    if isinstance(destination, str):
        return open(destination, "w", encoding="utf-8"), True
    return destination, False


def write_jsonl(
    events: Iterable[TraceEvent], destination: Union[str, IO[str]]
) -> int:
    sink, owned = _open_sink(destination)
    try:
        count = 0
        for ev in events:
            sink.write(ev.to_json())
            sink.write("\n")
            count += 1
        return count
    finally:
        if owned:
            sink.close()


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
    """Render events in the Chrome ``trace_event`` format.

    Mapping choices:

    - every actor becomes a named *thread* (one swimlane per component);
    - ``engine.work`` events carry a ``dur`` argument and become
      complete slices (``ph: "X"``), so engine execution renders as
      nested duration bars;
    - ``fifo.enq``/``fifo.deq`` additionally emit a counter track
      (``ph: "C"``) of the FIFO's occupancy;
    - everything else is an instant event (``ph: "i"``).

    Timestamps are exported in microseconds, the unit the format
    specifies.
    """
    tids: Dict[str, int] = {}
    trace_events: List[Dict[str, Any]] = []

    def tid_of(actor: str) -> int:
        tid = tids.get(actor)
        if tid is None:
            tid = len(tids) + 1
            tids[actor] = tid
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": actor or "sim"},
                }
            )
        return tid

    count = 0
    for ev in events:
        count += 1
        ts_us = ev.ts * 1e6
        args: Dict[str, Any] = dict(ev.args)
        if ev.cell_id is not None:
            args["cell_id"] = ev.cell_id
        if ev.pdu_id is not None:
            args["pdu_id"] = ev.pdu_id
        if ev.vc is not None:
            args["vc"] = ev.vc
        tid = tid_of(ev.actor)
        if ev.name == "engine.work" and "dur" in ev.args:
            trace_events.append(
                {
                    "name": str(args.get("tag", "work")),
                    "cat": "engine",
                    "ph": "X",
                    "ts": ts_us,
                    "dur": ev.args["dur"] * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
            continue
        trace_events.append(
            {
                "name": ev.name,
                "cat": ev.name.split(".")[0],
                "ph": "i",
                "ts": ts_us,
                "pid": 1,
                "tid": tid,
                "s": "t",
                "args": args,
            }
        )
        if ev.name in ("fifo.enq", "fifo.deq") and "occupancy" in ev.args:
            trace_events.append(
                {
                    "name": f"{ev.actor} occupancy",
                    "ph": "C",
                    "ts": ts_us,
                    "pid": 1,
                    "tid": tid,
                    "args": {"cells": ev.args["occupancy"]},
                }
            )

    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "source": "repro.obs.trace",
            "paper": "A Host-Network Interface Architecture for ATM "
            "(SIGCOMM '91)",
        },
    }
    sink, owned = _open_sink(destination)
    try:
        json.dump(document, sink)
    finally:
        if owned:
            sink.close()
    return count

"""Cycle accounting: attribute live engine cycles to operations/phases.

The paper's T1/T2 tables budget the segmentation and reassembly inner
loops operation by operation.  The cost models in
:mod:`repro.nic.costs` *are* those budgets, but a table printed from a
dataclass only proves what was configured.  The
:class:`CycleProfiler` proves what *ran*: attached to the engines, it
observes every executed cell/PDU and attributes its cycles to the same
named operations via the cost models' ``cell_breakdown`` /
``pdu_breakdown`` maps -- so the T1/T2 tables it renders are measured
from a live simulation, and reproducing the configured budgets (16
cycles per TX middle cell, 22 per RX middle cell with the CAM) is an
end-to-end check that the pipeline charged exactly what the budget
says.

Operations also roll up into the paper's four analysis *phases*:

- **classify** -- header parsing and VCI lookup (CAM or software probe);
- **copy** -- data movement: SAR cell build, pointer advance,
  FIFO handshakes, context update, payload store;
- **crc** -- CRC accumulation (zero with the hardware assist fitted);
- **per-pdu** -- the once-per-PDU overheads: descriptor and completion
  traffic, context open/close, trailer work;
- **oam** -- management-cell handling (outside the paper's tables).

Attach with :func:`profile_interface`, or set ``engine.profiler``
directly; detach by setting it back to ``None``.  Like tracing, the
hot-path cost when detached is one attribute test per cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.nic.costs import CellPosition

#: Operation -> analysis phase (both directions share the namespace).
PHASE_OF_OP: Dict[str, str] = {
    # classify
    "header_parse": "classify",
    "vci_lookup_cam": "classify",
    "vci_lookup_software": "classify",
    # copy / data movement
    "cell_build": "copy",
    "buffer_advance": "copy",
    "fifo_push": "copy",
    "fifo_pop": "copy",
    "context_update": "copy",
    "payload_store": "copy",
    "sar_glue_extra": "copy",
    # crc
    "crc_per_cell": "crc",
    # per-PDU overhead
    "descriptor_fetch": "per-pdu",
    "dma_setup": "per-pdu",
    "header_template_load": "per-pdu",
    "completion_writeback": "per-pdu",
    "trailer_build": "per-pdu",
    "context_open": "per-pdu",
    "final_check": "per-pdu",
    "completion": "per-pdu",
    # management
    "oam_handling": "oam",
}

PHASES = ("classify", "copy", "crc", "per-pdu", "oam")


class _EngineLedger:
    """Per-direction accumulation: ops, phases, per-position cells."""

    __slots__ = ("op_cycles", "op_events", "position_cycles",
                 "position_cells", "pdus")

    def __init__(self) -> None:
        self.op_cycles: Dict[str, float] = {}
        self.op_events: Dict[str, int] = {}
        self.position_cycles: Dict[CellPosition, float] = {}
        self.position_cells: Dict[CellPosition, int] = {}
        self.pdus = 0

    def add_ops(self, ops: Dict[str, float]) -> float:
        total = 0.0
        for op, cycles in ops.items():
            self.op_cycles[op] = self.op_cycles.get(op, 0.0) + cycles
            self.op_events[op] = self.op_events.get(op, 0) + 1
            total += cycles
        return total

    @property
    def total_cycles(self) -> float:
        return sum(self.op_cycles.values())


class CycleProfiler:
    """Observes executed cells/PDUs and keeps the cycle ledgers."""

    def __init__(self) -> None:
        self._ledgers: Dict[str, _EngineLedger] = {
            "tx": _EngineLedger(),
            "rx": _EngineLedger(),
        }

    # -- recording (called from the engine loops) -------------------------

    def record_cell(
        self,
        engine: str,
        position: CellPosition,
        ops: Dict[str, float],
        extra: float = 0.0,
    ) -> None:
        """One cell executed; *ops* is the cost model's breakdown map.

        *extra* carries AAL-glue cycles outside the base model (booked
        as the ``sar_glue_extra`` op so the ledger still reconciles
        with the engine clock).
        """
        ledger = self._ledgers[engine]
        cycles = ledger.add_ops(ops)
        if extra:
            cycles += ledger.add_ops({"sar_glue_extra": extra})
        ledger.position_cycles[position] = (
            ledger.position_cycles.get(position, 0.0) + cycles
        )
        ledger.position_cells[position] = (
            ledger.position_cells.get(position, 0) + 1
        )

    def record_pdu(self, engine: str, ops: Dict[str, float]) -> None:
        """Once-per-PDU overhead executed (TX prologue/writeback)."""
        ledger = self._ledgers[engine]
        ledger.add_ops(ops)
        ledger.pdus += 1

    def record_ops(self, engine: str, ops: Dict[str, float]) -> None:
        """Cycles outside any cell/PDU budget (unknown-VC cells etc.)."""
        self._ledgers[engine].add_ops(ops)

    def record_oam(self, ops: Dict[str, float]) -> None:
        """One management cell handled by the RX engine."""
        self.record_ops("rx", ops)

    # -- queries ----------------------------------------------------------

    def cells_seen(self, engine: str) -> int:
        return sum(self._ledgers[engine].position_cells.values())

    def cells_at(self, engine: str, position: CellPosition) -> int:
        """Cells executed at one position (0 if unseen)."""
        return self._ledgers[engine].position_cells.get(position, 0)

    def pdus_seen(self, engine: str) -> int:
        return self._ledgers[engine].pdus

    def total_cycles(self, engine: str) -> float:
        return self._ledgers[engine].total_cycles

    def cycles_per_cell(
        self, engine: str, position: CellPosition
    ) -> Optional[float]:
        """Mean measured cycles per cell at *position* (None if unseen)."""
        ledger = self._ledgers[engine]
        cells = ledger.position_cells.get(position, 0)
        if not cells:
            return None
        return ledger.position_cycles[position] / cells

    def op_ledger(self, engine: str) -> Dict[str, Tuple[int, float]]:
        """op -> (occurrences, total cycles) for one direction."""
        ledger = self._ledgers[engine]
        return {
            op: (ledger.op_events[op], ledger.op_cycles[op])
            for op in sorted(ledger.op_cycles)
        }

    def phase_cycles(self, engine: str) -> Dict[str, float]:
        """Phase -> total cycles for one direction."""
        totals: Dict[str, float] = {}
        for op, cycles in self._ledgers[engine].op_cycles.items():
            phase = PHASE_OF_OP.get(op, "other")
            totals[phase] = totals.get(phase, 0.0) + cycles
        return totals

    def reconcile(self, clock, engine: str) -> float:
        """Recorded-minus-booked cycle residue against an engine clock.

        Compares this profiler's ledger for *engine* against the
        :class:`~repro.nic.engine.EngineClock`'s ``cycles_by_tag``
        total.  Zero means every cycle the engine charged was
        attributed to a named operation.
        """
        return self.total_cycles(engine) - clock.total_cycles

    # -- rendering --------------------------------------------------------

    def budget_rows(self, engine: str) -> List[List[str]]:
        """Paper-style per-operation rows: op, phase, events, cycles."""
        rows = []
        for op, (events, cycles) in self.op_ledger(engine).items():
            per_event = cycles / events if events else 0.0
            rows.append(
                [
                    op,
                    PHASE_OF_OP.get(op, "other"),
                    str(events),
                    f"{per_event:g}",
                    f"{cycles:g}",
                ]
            )
        return rows

    def position_rows(self, engine: str) -> List[List[str]]:
        """Per-position rows: position, cells, measured cycles/cell."""
        ledger = self._ledgers[engine]
        rows = []
        for position in CellPosition:
            cells = ledger.position_cells.get(position, 0)
            if not cells:
                continue
            per_cell = ledger.position_cycles[position] / cells
            rows.append([position.value, str(cells), f"{per_cell:g}"])
        return rows

    def phase_rows(self) -> List[List[str]]:
        """Phase rows across both directions: phase, tx, rx, share."""
        tx = self.phase_cycles("tx")
        rx = self.phase_cycles("rx")
        grand = sum(tx.values()) + sum(rx.values())
        rows = []
        for phase in PHASES:
            tx_c = tx.get(phase, 0.0)
            rx_c = rx.get(phase, 0.0)
            if not tx_c and not rx_c:
                continue
            share = (tx_c + rx_c) / grand if grand else 0.0
            rows.append(
                [phase, f"{tx_c:g}", f"{rx_c:g}", f"{100 * share:.1f}%"]
            )
        return rows

    def render(self) -> str:
        """All three tables as text (the ``trace``/O1 report body)."""
        from repro.results.tables import format_table

        sections = []
        for engine, title in (
            ("tx", "T1' measured segmentation budget (cycles)"),
            ("rx", "T2' measured reassembly budget (cycles)"),
        ):
            if not self.cells_seen(engine) and not self.pdus_seen(engine):
                continue
            sections.append(
                format_table(
                    ["operation", "phase", "events", "cyc/event", "total"],
                    self.budget_rows(engine),
                    title=title,
                )
            )
            sections.append(
                format_table(
                    ["cell position", "cells", "cycles/cell"],
                    self.position_rows(engine),
                    title=f"{engine.upper()} per-position service cost",
                )
            )
        rows = self.phase_rows()
        if rows:
            sections.append(
                format_table(
                    ["phase", "tx cycles", "rx cycles", "share"],
                    rows,
                    title="Cycle attribution by phase",
                )
            )
        return "\n\n".join(sections)


def profile_interface(
    nic, profiler: Optional[CycleProfiler] = None
) -> CycleProfiler:
    """Attach a profiler to both of an interface's engines."""
    if profiler is None:
        profiler = CycleProfiler()
    nic.tx_engine.profiler = profiler
    nic.rx_engine.profiler = profiler
    return profiler

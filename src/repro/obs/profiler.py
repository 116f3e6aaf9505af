"""Cycle accounting: attribute live engine cycles to operations/phases.

The paper's T1/T2 tables budget the segmentation and reassembly inner
loops operation by operation.  The cost models in
:mod:`repro.nic.costs` *are* those budgets, but a table printed from a
dataclass only proves what was configured.  The
:class:`CycleProfiler` proves what *ran*: it reads the ledgers of
engine clocks, which book every :class:`~repro.nic.costs.Charge` an
engine executes (:attr:`~repro.nic.engine.EngineClock.booked`: each
charge with how often it ran), and attributes the cycles to the
charges' named operations, so its cycles are the clocks' cycles,
drained or cut off mid-PDU.  The T1/T2 tables it renders are therefore measured from a
live simulation, and reproducing the configured budgets (16 cycles per
TX middle cell, 22 per RX middle cell with the CAM) is an end-to-end
check that the pipeline charged exactly what the budget says.

Operations also roll up into the paper's four analysis *phases*:

- **classify** -- header parsing and VCI lookup (CAM or software probe);
- **copy** -- data movement: SAR cell build, pointer advance,
  FIFO handshakes, context update, payload store, the AAL glue's
  per-cell extra (``sar_glue_extra``);
- **crc** -- CRC accumulation (zero with the hardware assist fitted);
- **per-pdu** -- the once-per-PDU overheads: descriptor and completion
  traffic, context open/close, trailer work;
- **oam** -- management-cell handling (outside the paper's tables).

:func:`repro.obs.observe` gives each simulator's view a profiler over
every interface's clocks; ``CycleProfiler([nic.tx_clock,
nic.rx_clock])`` profiles an unobserved interface.  The engines carry
no profiling hook.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.nic.costs import CellPosition, Charge
from repro.nic.engine import EngineClock

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
    """One direction's ledgers, folded from the clocks' booked charges:
    ops, per-position cells and PDUs."""

    __slots__ = ("op_cycles", "op_events", "position_cycles",
                 "position_cells", "pdus")

    def __init__(self) -> None:
        self.op_cycles: Dict[str, float] = {}
        self.op_events: Dict[str, int] = {}
        self.position_cycles: Dict[CellPosition, float] = {}
        self.position_cells: Dict[CellPosition, int] = {}
        self.pdus = 0

    def add(self, charge: Charge, runs: int) -> None:
        """Fold in *charge*, which ran *runs* times."""
        for op, cycles in charge.ops.items():
            self.op_cycles[op] = self.op_cycles.get(op, 0.0) + cycles * runs
            self.op_events[op] = self.op_events.get(op, 0) + runs
        position = charge.position
        if position is not None:
            self.position_cycles[position] = (
                self.position_cycles.get(position, 0.0) + charge.cycles * runs
            )
            self.position_cells[position] = (
                self.position_cells.get(position, 0) + runs
            )
        if charge.tag == "tx-pdu-prologue":
            self.pdus += runs

    @property
    def total_cycles(self) -> float:
        return sum(self.op_cycles.values())


class CycleProfiler:
    """A read-only view of engine clocks' ledgers, by op, phase and
    cell position.

    Each of *clocks* is an :class:`~repro.nic.engine.EngineClock`; one
    listed twice (a shared engine is both an interface's TX and RX
    clock) is read once.  Each query reads the ledgers as they stand.
    """

    def __init__(self, clocks: Iterable[EngineClock]) -> None:
        self.clocks = list(dict.fromkeys(clocks))

    def _ledger(self, engine: str) -> _EngineLedger:
        """The *engine* direction's charges, folded."""
        ledger = _EngineLedger()
        for clock in self.clocks:
            for charge, runs in clock.booked.items():
                if charge.engine == engine:
                    ledger.add(charge, runs)
        return ledger

    # -- queries ----------------------------------------------------------

    def cells_seen(self, engine: str) -> int:
        return sum(self._ledger(engine).position_cells.values())

    def cells_at(self, engine: str, position: CellPosition) -> int:
        """Cells executed at one position (0 if unseen)."""
        return self._ledger(engine).position_cells.get(position, 0)

    def pdus_seen(self, engine: str) -> int:
        return self._ledger(engine).pdus

    def total_cycles(self, engine: str) -> float:
        return self._ledger(engine).total_cycles

    def cycles_per_cell(
        self, engine: str, position: CellPosition
    ) -> Optional[float]:
        """Mean measured cycles per cell at *position* (None if unseen)."""
        ledger = self._ledger(engine)
        cells = ledger.position_cells.get(position, 0)
        if not cells:
            return None
        return ledger.position_cycles[position] / cells

    def op_ledger(self, engine: str) -> Dict[str, Tuple[int, float]]:
        """op -> (occurrences, total cycles) for one direction."""
        ledger = self._ledger(engine)
        return {
            op: (ledger.op_events[op], ledger.op_cycles[op])
            for op in sorted(ledger.op_cycles)
        }

    def phase_cycles(self, engine: str) -> Dict[str, float]:
        """Phase -> total cycles for one direction."""
        totals: Dict[str, float] = {}
        for op, cycles in self._ledger(engine).op_cycles.items():
            phase = PHASE_OF_OP.get(op, "other")
            totals[phase] = totals.get(phase, 0.0) + cycles
        return totals

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
        ledger = self._ledger(engine)
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
        """All three tables as text (the ``--profile``/O1 report body)."""
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


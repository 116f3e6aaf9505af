"""Cycle budgets for the protocol engines -- the paper's analysis method.

The original evaluation budgets the segmentation and reassembly inner
loops in processor instructions (assembly-level estimates for an
80960-class RISC microcontroller) and derives per-cell service times
from the engine clock.  These dataclasses carry exactly those budgets.

The default numbers are reconstructions calibrated to reproduce the
published *shapes* (see DESIGN.md §3): a 25 MHz engine clears the
2.83 us cell slot of STS-3c with wide margin in both directions,
transmit just clears the 0.71 us slot of STS-12c, and receive -- the
costlier direction, because of VCI lookup and reassembly state -- does
not, which is what pushed the era's designs toward per-cell hardware
assists for OC-12c.

All values are in engine clock cycles.  Everything is data: ablations
copy a model with :func:`dataclasses.replace` and mutate one field.

Each budget is written once, as a dataclass field.  The T1/T2 tables
(``breakdown()``) list the fields; every charge the engines make is a
memoized :class:`Charge` -- an op map, its cycle sum and the step it
is booked under.  An engine clock books the charge itself, so the
cycles it charges and the operations the cycle profiler reads back
are one record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import Any, ClassVar, Dict, Hashable, Optional, Tuple


class CellPosition(enum.Enum):
    """Where a cell sits in its PDU; budgets differ by position."""

    FIRST = "first"
    MIDDLE = "middle"
    LAST = "last"
    ONLY = "only"  #: single-cell PDU: both first- and last-cell work

    #: Members are singletons compared by identity, so they hash by
    #: identity too: Enum's own ``__hash__`` is Python code, and a
    #: position keys the charge memo twice per cell.
    __hash__ = object.__hash__

    @classmethod
    def of(cls, index: int, total: int) -> "CellPosition":
        """Position of cell *index* (0-based) in a *total*-cell PDU."""
        if total < 1:
            raise ValueError("PDU must have at least one cell")
        if not 0 <= index < total:
            raise ValueError(f"cell index {index} outside 0..{total - 1}")
        if total == 1:
            return cls.ONLY
        if index == 0:
            return cls.FIRST
        if index == total - 1:
            return cls.LAST
        return cls.MIDDLE


@dataclass(frozen=True)
class EngineSpec:
    """A protocol engine: a clocked RISC microcontroller."""

    name: str
    clock_hz: float

    def __post_init__(self) -> None:
        if not self.clock_hz > 0:
            raise ValueError("engine clock must be positive")

    @property
    def cycle_time(self) -> float:
        return 1.0 / self.clock_hz

    def seconds_for(self, cycles: float) -> float:
        if not cycles >= 0:
            raise ValueError(f"cycle count must be >= 0, got {cycles!r}")
        return cycles / self.clock_hz

    def at_clock(self, clock_hz: float) -> "EngineSpec":
        """The same engine at a different clock (for the F7 sweep)."""
        return EngineSpec(f"{self.name.split('-')[0]}-{clock_hz / 1e6:g}MHz", clock_hz)


I960_16MHZ = EngineSpec("i960-16MHz", 16e6)
I960_25MHZ = EngineSpec("i960-25MHz", 25e6)
I960_33MHZ = EngineSpec("i960-33MHz", 33e6)


class Charge:
    """One engine charge: the operations it executes, their sum, the
    step *tag* it is booked under, the *engine* that runs it (``"tx"``
    or ``"rx"``) and, for a per-cell charge, the cell's *position*.

    An engine clock books the charge itself, counting how often it ran
    (:attr:`repro.nic.engine.EngineClock.booked`), so a charge hashes
    by identity.  Charges are memoized, so *ops* is shared: read it,
    never mutate it.
    """

    __slots__ = ("ops", "cycles", "tag", "engine", "position")

    def __init__(
        self,
        ops: Dict[str, float],
        tag: str,
        engine: str,
        position: Optional[CellPosition] = None,
    ) -> None:
        for op, cycles in ops.items():
            if not cycles >= 0:
                raise ValueError(
                    f"cycle count for {op} must be >= 0, got {cycles!r}"
                )
        self.ops = ops
        self.cycles: float = sum(ops.values())
        self.tag = tag
        self.engine = engine
        self.position = position

    def with_op(self, op: str, cycles: float) -> "Charge":
        """This charge plus *cycles* more under *op* (itself if none)."""
        if not cycles:
            return self
        return Charge(
            {**self.ops, op: cycles}, self.tag, self.engine, self.position
        )


def _budget_table(model: Any) -> Dict[str, Any]:
    """Every budget field of a cost model, in declaration order."""
    return {f.name: getattr(model, f.name) for f in fields(model) if f.init}


def _check_budgets(model: Any) -> None:
    for name, value in _budget_table(model).items():
        if value < 0:
            raise ValueError(f"negative cycle budget for {name}")


@dataclass(frozen=True)
class TxCostModel:
    """Segmentation-path cycle budget (per the paper's TX inner loop).

    Per-PDU work happens once regardless of size; per-cell work repeats
    for every cell.  CRC generation is a hardware assist by default
    (``crc_per_cell = 0``); setting it non-zero models doing the CRC in
    engine software, one of the ablations.
    """

    # -- once per PDU -----------------------------------------------------
    descriptor_fetch: int = 30  #: read + parse the host's TX descriptor
    dma_setup: int = 20  #: program the host-memory fetch of the PDU
    header_template_load: int = 10  #: fetch the VC's cell-header template
    completion_writeback: int = 25  #: status writeback to the host ring
    # -- once per cell ----------------------------------------------------
    cell_build: int = 8  #: write header word(s), update length count
    buffer_advance: int = 5  #: advance the PDU read pointer
    fifo_push: int = 3  #: hand the cell to the link-side FIFO
    crc_per_cell: int = 0  #: CRC accumulate (0 = hardware assist)
    # -- once on the final cell -------------------------------------------
    trailer_build: int = 20  #: assemble pad + AAL trailer fields

    #: The once-per-PDU operations, grouped into the steps the engine
    #: charges them in, keyed by the step's tag: the prologue, the
    #: host-DMA setup, and the status writeback after the last cell.
    PDU_STEPS: ClassVar[Dict[str, Tuple[str, ...]]] = {
        "tx-pdu-prologue": ("descriptor_fetch", "header_template_load"),
        "tx-dma-setup": ("dma_setup",),
        "tx-pdu-completion": ("completion_writeback",),
    }

    #: Charge memo keyed by cell position or PDU step: the budget is
    #: frozen, and an engine asks for the same few keys.
    _charges: Dict[Hashable, Charge] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_budgets(self)

    def pdu_cycles(self) -> float:
        """Fixed per-PDU overhead, excluding any per-cell work."""
        return sum(self.pdu_breakdown().values())

    def pdu_step_charge(self, step: str) -> Charge:
        """The operations of one :data:`PDU_STEPS` step, tagged *step*."""
        charge = self._charges.get(step)
        if charge is None:
            ops = {op: getattr(self, op) for op in self.PDU_STEPS[step]}
            charge = self._charges[step] = Charge(ops, step, "tx")
        return charge

    def cell_charge(self, position: CellPosition) -> Charge:
        """:meth:`cell_breakdown` at *position*, tagged ``tx-cell``."""
        charge = self._charges.get(position)
        if charge is None:
            ops = self.cell_breakdown(position)
            charge = self._charges[position] = Charge(
                ops, "tx-cell", "tx", position
            )
        return charge

    def cell_cycles(self, position: CellPosition) -> float:
        """Engine cycles to emit one cell at *position*."""
        return self.cell_charge(position).cycles

    def pdu_total_cycles(self, n_cells: int) -> float:
        """Whole-PDU engine cost for an *n_cells*-cell PDU."""
        if n_cells < 1:
            raise ValueError("PDU must have at least one cell")
        total = self.pdu_cycles()
        for i in range(n_cells):
            total += self.cell_cycles(CellPosition.of(i, n_cells))
        return total

    def breakdown(self) -> Dict[str, int]:
        """Per-operation budget for the T1 table: every field, in order."""
        return _budget_table(self)

    def cell_breakdown(self, position: CellPosition) -> Dict[str, float]:
        """The operations actually executed for one cell at *position*."""
        ops: Dict[str, float] = {
            "cell_build": self.cell_build,
            "buffer_advance": self.buffer_advance,
            "fifo_push": self.fifo_push,
        }
        if self.crc_per_cell:
            ops["crc_per_cell"] = self.crc_per_cell
        if position in (CellPosition.LAST, CellPosition.ONLY):
            ops["trailer_build"] = self.trailer_build
        return ops

    def pdu_breakdown(self) -> Dict[str, float]:
        """The once-per-PDU operations, step by step."""
        return {
            op: getattr(self, op)
            for ops in self.PDU_STEPS.values()
            for op in ops
        }

    def with_software_crc(self, cycles_per_cell: int = 130) -> "TxCostModel":
        """Ablation: CRC done by the engine instead of hardware."""
        return replace(self, crc_per_cell=cycles_per_cell)


@dataclass(frozen=True)
class RxCostModel:
    """Reassembly-path cycle budget (per the paper's RX inner loop).

    Receive is inherently costlier than transmit: every cell must be
    classified (VCI lookup) and threaded into per-VC reassembly state.
    With the CAM assist the lookup is a couple of cycles of handshake;
    without it the engine searches a software table.
    """

    # -- once per cell ------------------------------------------------------
    fifo_pop: int = 3  #: take the next cell from the link-side FIFO
    header_parse: int = 4  #: extract VPI/VCI/PTI
    vci_lookup_cam: int = 2  #: CAM handshake to the reassembly context
    vci_lookup_software: int = 28  #: software table probe when no CAM fitted
    #: Additional software-probe cycles per installed VC (the probe's
    #: collision-chain walk grows with the table); the CAM pays nothing.
    vci_lookup_software_per_entry: float = 0.5
    context_update: int = 7  #: fetch/advance reassembly state
    payload_store: int = 6  #: buffer pointer update, schedule the write
    crc_per_cell: int = 0  #: CRC accumulate (0 = hardware assist)
    #: Management cells (OAM): recognise the PTI, hand to the OAM unit.
    oam_handling: int = 10
    # -- once per PDU ---------------------------------------------------------
    context_open: int = 35  #: first cell: allocate buffer, init state
    final_check: int = 18  #: last cell: trailer length/CRC verdict
    completion: int = 45  #: completion descriptor, DMA post, interrupt

    #: Charge memo keyed ``(position, cam_fitted, table_size)`` for
    #: cells, ``(None, cam_fitted, table_size)`` for classification
    #: alone, and ``"oam"``: frozen budget.  The CAM's cost ignores the
    #: table size, so CAM keys use 0 and stay few however many VCs
    #: churn through the table.
    _charges: Dict[Hashable, Charge] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_budgets(self)

    def lookup_cycles(self, cam_fitted: bool, table_size: int = 0) -> float:
        """VCI classification cost given the assist and the table size."""
        if cam_fitted:
            return self.vci_lookup_cam
        return (
            self.vci_lookup_software
            + self.vci_lookup_software_per_entry * max(0, table_size)
        )

    def cell_charge(
        self,
        position: CellPosition,
        cam_fitted: bool = True,
        table_size: int = 0,
    ) -> Charge:
        """:meth:`cell_breakdown` for these arguments, tagged ``rx-cell``."""
        key = (position, cam_fitted, 0 if cam_fitted else table_size)
        charge = self._charges.get(key)
        if charge is None:
            ops = self.cell_breakdown(position, cam_fitted, table_size)
            charge = self._charges[key] = Charge(ops, "rx-cell", "rx", position)
        return charge

    def classify_charge(self, cam_fitted: bool, table_size: int) -> Charge:
        """:meth:`classify_breakdown` for these arguments, tagged
        ``rx-unknown-vc``: all a cell for an unknown VC gets."""
        key = (None, cam_fitted, 0 if cam_fitted else table_size)
        charge = self._charges.get(key)
        if charge is None:
            ops = self.classify_breakdown(cam_fitted, table_size)
            charge = self._charges[key] = Charge(ops, "rx-unknown-vc", "rx")
        return charge

    def oam_charge(self) -> Charge:
        """:meth:`oam_breakdown`, tagged ``rx-oam``."""
        charge = self._charges.get("oam")
        if charge is None:
            ops = self.oam_breakdown()
            charge = self._charges["oam"] = Charge(ops, "rx-oam", "rx")
        return charge

    def cell_cycles(
        self,
        position: CellPosition,
        cam_fitted: bool = True,
        table_size: int = 0,
    ) -> float:
        """Engine cycles to absorb one cell at *position*."""
        return self.cell_charge(position, cam_fitted, table_size).cycles

    def pdu_cycles(self) -> int:
        """Fixed per-PDU overhead (first-cell open + last-cell close)."""
        return self.context_open + self.final_check + self.completion

    def pdu_total_cycles(
        self, n_cells: int, cam_fitted: bool = True, table_size: int = 0
    ) -> float:
        """Whole-PDU engine cost for an *n_cells*-cell PDU."""
        if n_cells < 1:
            raise ValueError("PDU must have at least one cell")
        return sum(
            self.cell_cycles(CellPosition.of(i, n_cells), cam_fitted, table_size)
            for i in range(n_cells)
        )

    def breakdown(self) -> Dict[str, float]:
        """Per-operation budget for the T2 table: every field, in order."""
        return _budget_table(self)

    def classify_breakdown(
        self, cam_fitted: bool, table_size: int
    ) -> Dict[str, float]:
        """Pop, parse and look up one user cell -- all a cell for an
        unknown VC gets.  The lookup op is named for the assist used;
        the software probe's per-entry coefficient is folded into it.
        """
        lookup_op = "vci_lookup_cam" if cam_fitted else "vci_lookup_software"
        return {
            "fifo_pop": self.fifo_pop,
            "header_parse": self.header_parse,
            lookup_op: self.lookup_cycles(cam_fitted, table_size),
        }

    def cell_breakdown(
        self,
        position: CellPosition,
        cam_fitted: bool = True,
        table_size: int = 0,
    ) -> Dict[str, float]:
        """The operations actually executed for one cell at *position*."""
        ops = self.classify_breakdown(cam_fitted, table_size)
        ops["context_update"] = self.context_update
        ops["payload_store"] = self.payload_store
        if self.crc_per_cell:
            ops["crc_per_cell"] = self.crc_per_cell
        if position in (CellPosition.FIRST, CellPosition.ONLY):
            ops["context_open"] = self.context_open
        if position in (CellPosition.LAST, CellPosition.ONLY):
            ops["final_check"] = self.final_check
            ops["completion"] = self.completion
        return ops

    def oam_breakdown(self) -> Dict[str, float]:
        """The operations for one management cell."""
        return {
            "fifo_pop": self.fifo_pop,
            "header_parse": self.header_parse,
            "oam_handling": self.oam_handling,
        }

    def with_software_crc(self, cycles_per_cell: int = 130) -> "RxCostModel":
        """Ablation: CRC done by the engine instead of hardware."""
        return replace(self, crc_per_cell=cycles_per_cell)

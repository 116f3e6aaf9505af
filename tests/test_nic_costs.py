"""Engine cycle budgets: the quantities the whole evaluation rests on."""

from dataclasses import fields

import pytest

from repro.nic import (
    CellPosition,
    EngineSpec,
    I960_25MHZ,
    RxCostModel,
    TxCostModel,
)
from repro.nic.costs import Charge


class TestCellPosition:
    def test_classification(self):
        assert CellPosition.of(0, 1) is CellPosition.ONLY
        assert CellPosition.of(0, 3) is CellPosition.FIRST
        assert CellPosition.of(1, 3) is CellPosition.MIDDLE
        assert CellPosition.of(2, 3) is CellPosition.LAST

    def test_validation(self):
        with pytest.raises(ValueError):
            CellPosition.of(0, 0)
        with pytest.raises(ValueError):
            CellPosition.of(3, 3)


class TestEngineSpec:
    def test_seconds_for(self):
        assert I960_25MHZ.seconds_for(25) == pytest.approx(1e-6)

    def test_at_clock_renames(self):
        faster = I960_25MHZ.at_clock(33e6)
        assert faster.clock_hz == 33e6
        assert "33" in faster.name

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineSpec("bad", 0.0)
        with pytest.raises(ValueError):
            I960_25MHZ.seconds_for(-1)


class TestTxCosts:
    def test_middle_cell_cheaper_than_last(self):
        costs = TxCostModel()
        assert costs.cell_cycles(CellPosition.MIDDLE) < costs.cell_cycles(
            CellPosition.LAST
        )

    def test_only_cell_includes_trailer(self):
        costs = TxCostModel()
        assert costs.cell_cycles(CellPosition.ONLY) == costs.cell_cycles(
            CellPosition.LAST
        )

    def test_pdu_total_formula(self):
        costs = TxCostModel()
        n = 10
        expected = (
            costs.pdu_cycles()
            + (n - 1) * costs.cell_cycles(CellPosition.MIDDLE)
            + costs.cell_cycles(CellPosition.LAST)
        )
        assert costs.pdu_total_cycles(n) == expected

    def test_single_cell_pdu(self):
        costs = TxCostModel()
        assert costs.pdu_total_cycles(1) == costs.pdu_cycles() + costs.cell_cycles(
            CellPosition.ONLY
        )

    def test_software_crc_ablation(self):
        base = TxCostModel()
        soft = base.with_software_crc(130)
        delta = soft.cell_cycles(CellPosition.MIDDLE) - base.cell_cycles(
            CellPosition.MIDDLE
        )
        assert delta == 130

    def test_breakdown_covers_all_costs(self):
        costs = TxCostModel()
        assert set(costs.breakdown()) >= {
            "descriptor_fetch",
            "cell_build",
            "trailer_build",
        }

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            TxCostModel(cell_build=-1)

    def test_validation_of_pdu_size(self):
        with pytest.raises(ValueError):
            TxCostModel().pdu_total_cycles(0)


class TestRxCosts:
    def test_rx_middle_cell_costlier_than_tx(self):
        # The paper's core asymmetry.
        assert RxCostModel().cell_cycles(
            CellPosition.MIDDLE
        ) > TxCostModel().cell_cycles(CellPosition.MIDDLE)

    def test_cam_cheaper_than_software(self):
        costs = RxCostModel()
        assert costs.cell_cycles(
            CellPosition.MIDDLE, cam_fitted=True
        ) < costs.cell_cycles(CellPosition.MIDDLE, cam_fitted=False)

    def test_software_lookup_scales_with_table(self):
        costs = RxCostModel()
        small = costs.lookup_cycles(cam_fitted=False, table_size=1)
        large = costs.lookup_cycles(cam_fitted=False, table_size=100)
        assert large > small
        # CAM does not scale.
        assert costs.lookup_cycles(True, 1) == costs.lookup_cycles(True, 100)

    def test_first_cell_includes_context_open(self):
        costs = RxCostModel()
        delta = costs.cell_cycles(CellPosition.FIRST) - costs.cell_cycles(
            CellPosition.MIDDLE
        )
        assert delta == costs.context_open

    def test_last_cell_includes_completion(self):
        costs = RxCostModel()
        delta = costs.cell_cycles(CellPosition.LAST) - costs.cell_cycles(
            CellPosition.MIDDLE
        )
        assert delta == costs.final_check + costs.completion

    def test_only_cell_has_both(self):
        costs = RxCostModel()
        assert costs.cell_cycles(CellPosition.ONLY) == (
            costs.cell_cycles(CellPosition.MIDDLE)
            + costs.context_open
            + costs.final_check
            + costs.completion
        )

    def test_pdu_total_consistent(self):
        costs = RxCostModel()
        n = 5
        total = costs.pdu_total_cycles(n)
        assert total == (
            costs.cell_cycles(CellPosition.FIRST)
            + 3 * costs.cell_cycles(CellPosition.MIDDLE)
            + costs.cell_cycles(CellPosition.LAST)
        )

    def test_default_25mhz_feasibility_story(self):
        """The calibrated design point the DESIGN.md claims rest on."""
        tx = TxCostModel()
        rx = RxCostModel()
        engine = I960_25MHZ
        tx_cell = engine.seconds_for(tx.cell_cycles(CellPosition.MIDDLE))
        rx_cell = engine.seconds_for(rx.cell_cycles(CellPosition.MIDDLE))
        oc3_slot = 424 / 149.76e6
        oc12_slot = 424 / 599.04e6
        # Both directions clear OC-3c per cell.
        assert tx_cell < oc3_slot and rx_cell < oc3_slot
        # TX clears OC-12c; RX does not (the hardware-assist argument).
        assert tx_cell < oc12_slot
        assert rx_cell > oc12_slot


class TestBudgetTables:
    """The T1/T2 tables and the op maps the engines charge agree."""

    def test_breakdown_lists_every_field_in_order(self):
        for model in (TxCostModel(), RxCostModel()):
            assert list(model.breakdown()) == [
                f.name for f in fields(model) if f.init
            ]

    def test_every_budget_field_is_charged_by_some_op_map(self):
        tx = TxCostModel().with_software_crc()
        charged = set(tx.pdu_breakdown())
        for position in CellPosition:
            charged |= set(tx.cell_breakdown(position))
        assert charged == set(tx.breakdown())

        rx = RxCostModel().with_software_crc()
        charged = set(rx.oam_breakdown())
        for cam in (True, False):
            charged |= set(rx.classify_breakdown(cam, 4))
            for position in CellPosition:
                charged |= set(rx.cell_breakdown(position, cam, 4))
        # The software probe's per-entry coefficient is the one field
        # that is not an operation: it is folded into the lookup op.
        assert set(rx.breakdown()) - charged == {"vci_lookup_software_per_entry"}
        assert charged <= set(rx.breakdown())

    def test_charges_are_the_sums_of_their_op_maps(self):
        tx = TxCostModel()
        for position in CellPosition:
            charge = tx.cell_charge(position)
            assert charge.ops == tx.cell_breakdown(position)
            assert charge.cycles == sum(charge.ops.values())
            assert charge.cycles == tx.cell_cycles(position)
            assert (charge.tag, charge.engine, charge.position) == (
                "tx-cell",
                "tx",
                position,
            )
        steps = [tx.pdu_step_charge(step) for step in tx.PDU_STEPS]
        assert [step.tag for step in steps] == [
            "tx-pdu-prologue",
            "tx-dma-setup",
            "tx-pdu-completion",
        ]
        assert sum(step.cycles for step in steps) == tx.pdu_cycles()
        assert sum(tx.pdu_breakdown().values()) == tx.pdu_cycles()

        rx = RxCostModel()
        for cam in (True, False):
            for position in CellPosition:
                charge = rx.cell_charge(position, cam, 9)
                assert charge.ops == rx.cell_breakdown(position, cam, 9)
                assert charge.cycles == sum(charge.ops.values())
                assert (charge.tag, charge.position) == ("rx-cell", position)
            charge = rx.classify_charge(cam, 9)
            assert charge.cycles == sum(charge.ops.values())
            assert (charge.tag, charge.position) == ("rx-unknown-vc", None)
        charge = rx.oam_charge()
        assert charge.cycles == sum(charge.ops.values())
        assert (charge.tag, charge.engine) == ("rx-oam", "rx")
        # The CAM's cost ignores the table size: one memo entry serves
        # every table size.
        middle = CellPosition.MIDDLE
        assert rx.cell_charge(middle, True, 5) is rx.cell_charge(middle, True, 900)

    def test_negative_op_refused_when_the_charge_is_built(self):
        with pytest.raises(ValueError, match="fifo_push"):
            Charge({"cell_build": 8, "fifo_push": -3}, "tx-cell", "tx")

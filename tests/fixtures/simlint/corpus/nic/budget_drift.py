"""SL204 fixtures: charge sites checked against the toy budget table.

``ToyEngine.consume_cell`` charges the two rows the toy table lists;
``charge_off_table`` books a cost field the table lacks (direction B,
anchored at the charge site), with a waived twin below.  Nothing
charges ``ghost_op``, so direction A lands on the table in
``costs.py``.
"""


class ToyEngine:
    """Charges exactly the budget rows the toy table lists."""

    def __init__(self, clock, costs: ToyCostModel) -> None:
        self.clock = clock
        self.costs = costs

    def consume_cell(self):
        """One cell: header and trailer words, both on the table."""
        self.clock.charge(
            self.costs.header_word + self.costs.trailer_word, tag="toy.cell"
        )


def charge_off_table(clock, costs):
    """Books a cost field the toy budget table never lists (SL204)."""
    clock.charge(costs.secret_op, tag="toy.secret")


def charge_waived(clock, costs):
    """The same budget drift, carrying a reasoned SL204 waiver."""
    # simlint: disable=SL204 -- fixture shows a reasoned budget-drift waiver
    clock.charge(costs.hidden_op, tag="toy.hidden")

"""SL2 fixtures: magic cycle literals at charge sites."""


def burn(clock, cpu, costs):
    """Charge sites with literals (flagged) and named fields (clean)."""
    clock.work(16, tag="tx.header")  # SL201: magic literal
    cpu.execute_then(costs.tx_header + 4, "tx.header", print)  # SL201: literal term
    clock.work(costs.tx_header, tag="tx.header")  # clean: named field

    # simlint: disable=SL201 -- fixture shows a reasoned cost-site waiver
    clock.work(2, tag="tx.slack")

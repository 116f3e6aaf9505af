"""SL2 fixtures: magic cycle literals at charge and profiler sites."""


def burn(clock, cpu, costs, profiler):
    """Charge sites with literals (flagged) and named fields (clean)."""
    clock.work(16, tag="tx.header")  # SL201: magic literal
    cpu.execute_then(costs.tx_header + 4, "tx.header", print)  # SL201: literal term
    clock.work(costs.tx_header, tag="tx.header")  # clean: named field

    profiler.record_ops("tx", {"header": 21.0})  # SL202: literal op cost
    profiler.record_ops("tx", {"header": costs.tx_header})  # clean

    # simlint: disable=SL201 -- fixture shows a reasoned cost-site waiver
    clock.work(2, tag="tx.slack")

"""SL5 fixtures: hook call sites checked against the real hook shapes."""


def observe(trace, profiler, cell, ops):
    """Hook sites: wrong shapes flagged, conforming ones clean."""
    trace.emit("tx.cell.sar", actor="fixture", cell=cell)  # clean
    trace.snapshot(cell)  # SL501: TraceRecorder has no such method

    profiler.record_cell("tx", "header", ops)  # clean
    profiler.record_cell("tx", "header", ops, ops, "extra")  # SL502: too many positional
    profiler.record_pdu("tx", ops, stage="sar")  # SL502: unknown keyword
    profiler.record_oam()  # SL502: missing required 'ops'

    # simlint: disable=SL501 -- prototype hook not yet in TraceRecorder
    trace.replay_window(10)

"""SL3 fixtures: events and drop reasons checked against the real tables."""


def narrate(trace, recorder, cell):
    """Emit sites: unknown names flagged, declared names clean."""
    trace.emit("tx.cell.sar", actor="fixture")  # clean: declared
    trace.emit("x.test.mystery", actor="fixture")  # SL301: not in taxonomy

    recorder.emit("cell.drop", reason="hec", cell=cell)  # clean
    recorder.emit("cell.drop", cell=cell)  # SL302: drop without a reason
    recorder.emit("cell.drop", reason="gremlins", cell=cell)  # SL302: undeclared
    recorder.emit("pdu.drop", reason="timeout")  # clean: a reassembly verdict

    # simlint: disable=SL301 -- experimental event pending taxonomy entry
    trace.emit("x.test.prototype", actor="fixture")

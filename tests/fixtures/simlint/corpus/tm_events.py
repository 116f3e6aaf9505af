"""A clean traffic-management emitter: every event is in the taxonomy.

SL301 cross-checks ``trace.emit`` names against the real
``EVENT_TAXONOMY``; this file emits only declared ``rm.*`` / ``abr.*``
/ ``port.*`` / ``cac.*`` names, so it must produce zero findings --
the green half of the SL3 fixtures for the traffic-management family.
"""

from repro.obs.trace import TraceRecorder


class CorpusAbrLoop:
    """Emits the declared traffic-management events and nothing else."""

    def __init__(self):
        self.trace = TraceRecorder()

    def send_rm(self, cell, ccr):
        self.trace.emit("rm.cell.sent", actor="abr", cell=cell, ccr=ccr)

    def stamp(self, cell, er):
        self.trace.emit("rm.cell.marked", actor="sw", cell=cell, er=er)

    def turn_around(self, cell, ci):
        self.trace.emit(
            "rm.cell.turnaround",
            actor="abr",
            cell=cell,
            ci=ci,
        )
        self.trace.emit("abr.rate.update", actor="abr", acr=1000.0)

    def mark_efci(self, cell, backlog):
        self.trace.emit("port.efci", actor="port", cell=cell, queue=backlog)

    def refuse(self, call_ref, cause):
        self.trace.emit(
            "cac.reject",
            actor="cac",
            call_ref=call_ref,
            cause=cause,
        )

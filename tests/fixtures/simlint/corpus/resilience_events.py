"""A clean recovery-plane emitter: every event is in the taxonomy.

SL301 cross-checks ``trace.emit`` names against the real
``EVENT_TAXONOMY``; this file emits only declared ``oam.*`` /
``link.*`` / ``sig.*`` names, so it must produce zero findings --
the green half of the SL3 fixtures for the fault-management family.
"""

from repro.obs.trace import TraceRecorder


class CorpusSupervisor:
    """Emits the declared recovery-plane events and nothing else."""

    def __init__(self):
        self.trace = TraceRecorder()

    def declare_loc(self):
        self.trace.emit("oam.cc.loc", actor="sup", silence=7e-4)
        self.trace.emit("oam.alarm.raised", actor="sup", kind="rdi")

    def transition(self, old, new):
        self.trace.emit(
            "link.supervisor.state",
            actor="sup",
            from_state=old,
            to_state=new,
        )

    def retransmit(self, call_ref, attempt):
        self.trace.emit(
            "sig.retransmit",
            actor="sig",
            call_ref=call_ref,
            attempt=attempt,
        )

"""Fault-injection campaigns and conservation auditing.

Robustness work needs three things the happy-path experiments do not
provide: a way to *cause* trouble deterministically, a receive path
that degrades gracefully instead of collapsing, and an accountant that
proves no cell was lost without a named cause.  This package supplies
the first and the third (the second lives in the NIC's
:class:`~repro.nic.rx.FrameDiscardPolicy` machinery):

- :mod:`repro.faults.plan` -- declarative, seeded fault plans (bursty
  link loss, engine stall windows, reassembly-tail loss, CAM miss
  injection, interrupt storms, payload/HEC corruption);
- :mod:`repro.faults.campaign` -- :class:`FaultCampaign` composes plans
  onto a complete sender/receiver testbed and runs it to a drained,
  auditable end state;
- :mod:`repro.faults.audit` -- :class:`CellConservationAuditor` checks
  the books: cells offered equals cells delivered plus cells dropped,
  itemised by cause, at any instant of the run;
- :mod:`repro.faults.sweep` -- campaign *sweeps*: the same plan preset
  across an axis of seeds via :mod:`repro.runner`, inheriting its
  process-pool sharding, result cache, and crash isolation.

The package itself exports only the model side: the auditor and its
ledger, and the fault plans.  The drivers are imported from their own
modules, so a simulation that audits its cells loads no experiment
harness.

Usage -- run a seeded lossy campaign and prove the books balance::

    from repro.faults import BurstLossPlan
    from repro.faults.campaign import CampaignSpec, FaultCampaign
    from repro.nic.config import aurora_oc3

    campaign = FaultCampaign(
        aurora_oc3(),
        plans=[BurstLossPlan(p_good_to_bad=0.01, p_bad_to_good=0.25)],
        spec=CampaignSpec(duration=0.02, sdu_size=8192),
        seed=11,
    )
    result = campaign.run()
    print(result.ledger.format())   # itemised per-cause drop table
    assert result.ledger.is_conserved

Or audit any hand-built testbed directly::

    from repro.faults import CellConservationAuditor

    auditor = CellConservationAuditor(link, receiver_nic)
    sim.run(until=0.02)
    auditor.assert_conserved()      # raises CellConservationError if not

The drop-cause names in the ledger are the same strings the tracing
layer emits as ``cell.drop`` / ``pdu.drop`` reasons (see
:data:`repro.obs.DROP_REASONS`), so a trace and an audit of the same
run cross-check each other.
"""

from repro.faults.audit import (
    CellConservationAuditor,
    CellConservationError,
    ConservationLedger,
)
from repro.faults.plan import (
    BurstLossPlan,
    CamMissPlan,
    CorruptionPlan,
    EngineStallPlan,
    FaultPlan,
    InterruptStormPlan,
    LinkFlapPlan,
    TailLossPlan,
    UniformLossPlan,
)

__all__ = [
    "BurstLossPlan",
    "CamMissPlan",
    "CellConservationAuditor",
    "CellConservationError",
    "ConservationLedger",
    "CorruptionPlan",
    "EngineStallPlan",
    "FaultPlan",
    "InterruptStormPlan",
    "LinkFlapPlan",
    "TailLossPlan",
    "UniformLossPlan",
]

"""Fault plans, campaigns, and the cell-conservation audit."""

import pytest

from repro.faults import (
    BurstLossPlan,
    CamMissPlan,
    CellConservationAuditor,
    CellConservationError,
    CorruptionPlan,
    EngineStallPlan,
    InterruptStormPlan,
    TailLossPlan,
    UniformLossPlan,
)
from repro.faults.campaign import CampaignSpec, FaultCampaign
from repro.faults.plan import PlanError
from repro.nic.config import aurora_oc3
from repro.nic.costs import I960_25MHZ, Charge
from repro.nic.engine import EngineClock
from repro.nic.rx import FrameDiscardPolicy
from repro.sim.random import RandomStreams
from repro.workloads.scenarios import build_point_to_point

#: 25 cycles of engine work: 1 us at 25 MHz.
WORK = Charge({"work": 25}, "work", "tx")

FAST_SPEC = CampaignSpec(duration=0.01, n_vcs=2, sdu_size=4096, pdus_per_vc=10)


def degradation_config():
    return aurora_oc3().with_frame_discard(FrameDiscardPolicy(), quota=8)


class TestEngineStallHook:
    def test_stall_absorbed_by_next_work(self, sim):
        clock = EngineClock(sim, I960_25MHZ)
        clock.request_stall(1e-3)
        finished = []
        clock.work(WORK, lambda: finished.append(sim.now))
        sim.run()
        assert finished[0] == pytest.approx(25 / 25e6 + 1e-3)
        assert clock.stalls_taken == 1
        assert clock.stalled_time == pytest.approx(1e-3)

    def test_stalls_accumulate(self, sim):
        clock = EngineClock(sim, I960_25MHZ)
        clock.request_stall(1e-3)
        clock.request_stall(2e-3)
        clock.work(WORK, lambda: None)
        sim.run()
        assert clock.stalls_taken == 1  # absorbed together
        assert clock.stalled_time == pytest.approx(3e-3)

    def test_validation(self, sim):
        clock = EngineClock(sim, I960_25MHZ)
        with pytest.raises(ValueError):
            clock.request_stall(-1.0)

    def test_periodic_builder(self):
        plan = EngineStallPlan.periodic(0.0, 0.01, period=0.002, duration=1e-4)
        assert plan.at == (0.0, 0.002, 0.004, 0.006, 0.008)
        with pytest.raises(ValueError):
            EngineStallPlan.periodic(0.0, 1.0, period=0.0, duration=1e-4)


class TestPlanValidation:
    def test_cam_miss_requires_cam(self):
        campaign = FaultCampaign(
            aurora_oc3().without_cam(), [CamMissPlan(p=0.5)], FAST_SPEC
        )
        with pytest.raises(PlanError):
            campaign.run()

    def test_tail_loss_vc_index_bounds(self):
        campaign = FaultCampaign(
            aurora_oc3(), [TailLossPlan(vc_index=99)], FAST_SPEC
        )
        with pytest.raises(PlanError):
            campaign.run()

    def test_plan_parameter_validation(self):
        with pytest.raises(ValueError):
            EngineStallPlan(duration=0.0)
        with pytest.raises(ValueError):
            EngineStallPlan(engine="dma")
        with pytest.raises(ValueError):
            CorruptionPlan(payload_p=1.5)
        with pytest.raises(ValueError):
            InterruptStormPlan(rate_hz=0.0)
        with pytest.raises(ValueError):
            InterruptStormPlan(start=1.0, stop=0.5)


class TestFaultCampaign:
    def test_ge_loss_plus_stall_is_deterministic_and_conserved(self):
        """The acceptance campaign: bursty loss + engine stalls, twice."""
        plans = [
            BurstLossPlan(start=0.002, stop=0.006),
            EngineStallPlan.periodic(0.003, 0.008, period=0.002, duration=2e-4),
        ]

        def once():
            campaign = FaultCampaign(
                degradation_config(), plans, FAST_SPEC, seed=42
            )
            return campaign.run()

        first, second = once(), once()
        assert first.is_conserved and first.ledger.unaccounted == 0
        assert first.ledger == second.ledger
        assert first.pdus_received == second.pdus_received
        assert first.goodput_mbps == pytest.approx(second.goodput_mbps)
        # The faults actually bit: something was lost and accounted.
        assert first.ledger.link_lost > 0
        assert first.ledger.offered > 0

    def test_different_seed_different_schedule(self):
        plans = [BurstLossPlan(start=0.0, stop=0.01, p_good_to_bad=0.02)]
        a = FaultCampaign(degradation_config(), plans, FAST_SPEC, seed=1).run()
        b = FaultCampaign(degradation_config(), plans, FAST_SPEC, seed=2).run()
        assert a.ledger.link_lost != b.ledger.link_lost

    def test_tail_loss_strands_context_until_timer(self):
        """A lost EOF leaves the context for the timer wheel to reclaim."""
        spec = CampaignSpec(duration=0.01, n_vcs=1, sdu_size=4096, pdus_per_vc=3)
        campaign = FaultCampaign(
            degradation_config(),
            [TailLossPlan(vc_index=0, pdu_indices=(2,))],  # final PDU's tail
            spec,
        )
        result = campaign.run()
        assert result.is_conserved
        assert result.ledger.discarded_by.get("timeout", 0) > 0
        assert result.ledger.reassembly_open == 0  # drained

    def test_interrupt_storm_burns_host_cycles(self):
        plans = [InterruptStormPlan(start=0.0, stop=0.01, rate_hz=50e3)]
        campaign = FaultCampaign(degradation_config(), plans, FAST_SPEC)
        result = campaign.run()
        assert result.is_conserved
        assert campaign.receiver.interrupts.spurious.count > 100

    def test_corruption_feeds_crc_and_hec_buckets(self):
        plans = [CorruptionPlan(payload_p=0.01, hec_p=0.005)]
        campaign = FaultCampaign(degradation_config(), plans, FAST_SPEC)
        result = campaign.run()
        assert result.is_conserved
        assert result.ledger.hec_discarded > 0
        assert result.ledger.discarded_by.get("crc", 0) > 0

    def test_cam_miss_plan_discards_known_vc_cells(self):
        plans = [CamMissPlan(p=0.05)]
        campaign = FaultCampaign(degradation_config(), plans, FAST_SPEC)
        result = campaign.run()
        assert result.is_conserved
        assert campaign.receiver.cam.forced_misses > 0
        assert result.ledger.unknown_vc == campaign.receiver.cam.forced_misses

    def test_kitchen_sink_campaign_balances(self):
        """Every plan type at once: the books still close to zero."""
        plans = [
            UniformLossPlan(p=0.005),
            BurstLossPlan(start=0.002, stop=0.005),
            TailLossPlan(vc_index=0, pdu_indices=(1,)),
            CorruptionPlan(payload_p=0.005, hec_p=0.002),
            EngineStallPlan.periodic(0.001, 0.009, period=0.003, duration=1e-4),
            CamMissPlan(p=0.01),
            InterruptStormPlan(start=0.0, stop=0.008, rate_hz=10e3),
        ]
        result = FaultCampaign(
            degradation_config(), plans, FAST_SPEC, seed=7
        ).run()
        assert result.ledger.unaccounted == 0
        assert "unaccounted" in result.summary()

    def test_campaign_runs_once(self):
        campaign = FaultCampaign(aurora_oc3(), [], FAST_SPEC)
        campaign.run()
        with pytest.raises(RuntimeError):
            campaign.run()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(duration=0.0)
        with pytest.raises(ValueError):
            CampaignSpec(n_vcs=0)
        with pytest.raises(ValueError):
            CampaignSpec(pdus_per_vc=0)


class TestAuditor:
    def test_detects_a_cooked_ledger(self, sim):
        """Tampering with a counter must trip the auditor."""
        scenario = build_point_to_point(sim, aurora_oc3())
        scenario.sender.send(scenario.vc, bytes(2000))
        sim.run(until=0.01)
        auditor = CellConservationAuditor(scenario.link_ab, scenario.receiver)
        auditor.assert_conserved()
        # Claim 5 cells crossed the wire that no downstream counter saw.
        scenario.link_ab.cells_delivered.increment(5)
        with pytest.raises(CellConservationError) as err:
            auditor.assert_conserved()
        assert "5 unaccounted" in str(err.value)

    def test_breakdown_covers_the_sum(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        scenario.sender.send(scenario.vc, bytes(2000))
        sim.run(until=0.01)
        ledger = CellConservationAuditor(
            scenario.link_ab, scenario.receiver
        ).snapshot()
        assert sum(ledger.breakdown().values()) == ledger.accounted
        assert ledger.offered == ledger.accounted
        assert str(ledger.offered) in ledger.format()

    def test_delivered_cells_partition(self):
        result = FaultCampaign(degradation_config(), [], FAST_SPEC).run()
        ledger = result.ledger
        assert ledger.delivered == (
            ledger.to_host + ledger.no_host_buffer + ledger.dma_in_flight
        )
        assert ledger.dma_in_flight == 0  # drained


class TestCampaignRngIsolation:
    def test_plan_streams_are_independent(self):
        campaign = FaultCampaign(aurora_oc3(), [], FAST_SPEC, seed=5)
        a = campaign.rng_for(0, BurstLossPlan())
        b = campaign.rng_for(1, BurstLossPlan())
        same = campaign.rng_for(0, BurstLossPlan())
        assert a.random() != b.random()
        expected = RandomStreams(5).stream(f"plan.0.{BurstLossPlan().label}")
        assert expected.random() == same.random()

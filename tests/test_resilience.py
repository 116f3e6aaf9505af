"""Fault-management plane: alarms, supervision, timers, restoration."""

import pytest

from repro.atm import AtmCell, VcAddress
from repro.atm.errors import ScheduledLoss, UniformLoss
from repro.atm.oam import (
    AIS,
    RDI,
    AlarmCell,
    ContinuityCell,
    ContinuityCheckSink,
    ContinuityCheckSource,
    LoopbackCell,
    OamFormatError,
    decode_oam,
)
from repro.atm.signalling import (
    CallRefused,
    CallState,
    CallTimeout,
    SignallingAgent,
    SignallingTimers,
    backoff_schedule,
)
from repro.faults import LinkFlapPlan
from repro.faults.campaign import CampaignSpec, FaultCampaign
from repro.faults.sweep import PLAN_PRESETS
from repro.nic import HostNetworkInterface, OamPingTimeout, aurora_oc3, connect
from repro.resilience import (
    OAM_MGMT_VC,
    CallRestorer,
    LinkState,
    LinkSupervisor,
    SupervisorConfig,
)
from repro.sim.random import RandomStreams


# -- OAM alarm / continuity codecs ------------------------------------------


class TestAlarmCodec:
    @pytest.mark.parametrize("kind", [AIS, RDI])
    def test_roundtrip(self, kind):
        original = AlarmCell(
            vc=VcAddress(0, 44), kind=kind, source_id=b"workstation1"
        )
        cell = original.encode()
        assert not cell.is_user_cell
        assert AlarmCell.decode(cell) == original

    def test_cc_roundtrip(self):
        original = ContinuityCell(
            vc=VcAddress(0, 4), sequence=12345, source_id=b"supervisor-a"
        )
        assert ContinuityCell.decode(original.encode()) == original

    def test_decode_oam_dispatch(self):
        loop = LoopbackCell(VcAddress(0, 1), 7, True).encode()
        alarm = AlarmCell(VcAddress(0, 1), RDI).encode()
        cc = ContinuityCell(VcAddress(0, 1), 3).encode()
        assert isinstance(decode_oam(loop), LoopbackCell)
        assert isinstance(decode_oam(alarm), AlarmCell)
        assert isinstance(decode_oam(cc), ContinuityCell)

    def test_decode_oam_rejects_unknown_type(self):
        cell = AlarmCell(VcAddress(0, 1), AIS).encode()
        payload = bytearray(cell.payload)
        payload[0] = 0x3F  # not a fault-management type byte
        bad = AtmCell(
            vpi=cell.vpi, vci=cell.vci, payload=bytes(payload), pti=cell.pti
        )
        with pytest.raises(OamFormatError):
            decode_oam(bad)

    def test_crc_protects_alarm_payload(self):
        cell = AlarmCell(VcAddress(0, 1), RDI).encode()
        payload = bytearray(cell.payload)
        payload[8] ^= 0x40
        bad = AtmCell(
            vpi=cell.vpi, vci=cell.vci, payload=bytes(payload), pti=cell.pti
        )
        with pytest.raises(OamFormatError):
            AlarmCell.decode(bad)


# -- continuity check timing ------------------------------------------------


class TestContinuityCheck:
    def test_loc_declared_one_silence_window_after_last_cell(self, sim):
        events = []
        sink = ContinuityCheckSink(
            sim,
            silence=7e-4,
            on_loc=lambda now: events.append(("loc", now)),
            on_resume=lambda now: events.append(("resume", now)),
        )
        sink.start()

        def feed():
            for _ in range(5):
                sink.observe(ContinuityCell(VcAddress(0, 4), 0))
                yield sim.timeout(2e-4)

        sim.process(feed())
        sim.run(until=5e-3)
        assert [kind for kind, _ in events] == ["loc"]
        # Last heartbeat lands at t=8e-4; LOC exactly one window later.
        assert events[0][1] == pytest.approx(8e-4 + 7e-4)

    def test_resume_after_loc(self, sim):
        events = []
        sink = ContinuityCheckSink(
            sim,
            silence=5e-4,
            on_loc=lambda now: events.append("loc"),
            on_resume=lambda now: events.append("resume"),
        )
        sink.start()

        def feed():
            sink.observe(ContinuityCell(VcAddress(0, 4), 0))
            yield sim.timeout(2e-3)  # well past the window
            while sim.now < 4e-3:  # steady heartbeats after the gap
                sink.observe(ContinuityCell(VcAddress(0, 4), 1))
                yield sim.timeout(2e-4)

        sim.process(feed())
        sim.run(until=4e-3)
        assert events == ["loc", "resume"]
        assert sink.loc_events == 1
        assert sink.resumptions == 1

    def test_source_paces_and_wraps_sequence(self, sim):
        sent = []
        source = ContinuityCheckSource(
            sim, inject=sent.append, vc=OAM_MGMT_VC, period=1e-4
        )
        source.start()
        sim.run(until=1.05e-3)
        source.stop()
        assert len(sent) == 11  # t=0 inclusive, every 100 us
        decoded = [ContinuityCell.decode(c) for c in sent]
        assert [c.sequence for c in decoded] == list(range(11))
        assert all(c.vc == OAM_MGMT_VC for c in decoded)


# -- signalling timers ------------------------------------------------------


class TestBackoffSchedule:
    def test_deterministic_from_stream_seed(self):
        timers = SignallingTimers()
        one = backoff_schedule(
            timers, timers.t303, RandomStreams(7).stream("sig.backoff")
        )
        two = backoff_schedule(
            timers, timers.t303, RandomStreams(7).stream("sig.backoff")
        )
        other = backoff_schedule(
            timers, timers.t303, RandomStreams(8).stream("sig.backoff")
        )
        assert one == two
        assert one != other

    def test_no_jitter_schedule_is_exact(self):
        timers = SignallingTimers(
            t303=1e-3, backoff=2.0, cap=8e-3, max_retries=4, jitter=0.0
        )
        schedule = backoff_schedule(timers, timers.t303)
        assert schedule == (1e-3, 2e-3, 4e-3, 8e-3, 8e-3)  # capped tail

    def test_jitter_stays_within_band(self):
        timers = SignallingTimers(jitter=0.1)
        for seed in range(10):
            rng = RandomStreams(seed).stream("sig.backoff")
            for n, delay in enumerate(
                backoff_schedule(timers, timers.t303, rng)
            ):
                nominal = min(timers.t303 * timers.backoff**n, timers.cap)
                assert 0.9 * nominal <= delay <= 1.1 * nominal

    def test_worst_case_total_bounds_any_schedule(self):
        timers = SignallingTimers()
        for seed in range(10):
            rng = RandomStreams(seed).stream("sig.backoff")
            total = sum(backoff_schedule(timers, timers.t303, rng))
            assert total <= timers.worst_case_total()

    def test_validation(self):
        with pytest.raises(ValueError):
            SignallingTimers(t303=0.0)
        with pytest.raises(ValueError):
            SignallingTimers(backoff=0.5)
        with pytest.raises(ValueError):
            SignallingTimers(max_retries=-1)
        with pytest.raises(ValueError):
            SignallingTimers(jitter=1.0)


def _signalling_pair(sim, timers, loss_ab=None, loss_ba=None):
    a = HostNetworkInterface(sim, aurora_oc3(), name="a")
    b = HostNetworkInterface(sim, aurora_oc3(), name="b")
    connect(sim, a, b, loss_ab=loss_ab, loss_ba=loss_ba)
    sig_a = SignallingAgent(sim, a, timers=timers, streams=RandomStreams(3))
    sig_b = SignallingAgent(sim, b, timers=timers, streams=RandomStreams(3))
    return a, b, sig_a, sig_b


class TestRetransmission:
    TIMERS = SignallingTimers(
        t303=1e-3, t308=1e-3, backoff=2.0, cap=4e-3, max_retries=2, jitter=0.0
    )

    def outcome_of(self, sim, loss_ab=None, loss_ba=None):
        a, b, sig_a, sig_b = _signalling_pair(
            sim, self.TIMERS, loss_ab=loss_ab, loss_ba=loss_ba
        )
        outcome = {}

        def caller():
            call = sig_a.place_call()
            outcome["call"] = call
            try:
                outcome["address"] = yield call.connected
            except CallRefused as exc:
                outcome["error"] = exc

        sim.process(caller())
        sim.run(until=0.05)
        return outcome, sig_a, sig_b

    def test_lost_setup_retransmitted_and_connects(self, sim):
        # The first SETUP (sent at t=0) dies; the t303 retransmission
        # at ~1 ms crosses a healed link and the call still completes.
        flap = ScheduledLoss(
            UniformLoss(1.0, rng=RandomStreams(1).stream("flap")),
            start=0.0,
            stop=5e-4,
        )
        outcome, sig_a, _ = self.outcome_of(sim, loss_ab=flap)
        assert outcome["call"].state is CallState.ACTIVE
        assert outcome["address"] == outcome["call"].address
        assert sig_a.setup_retransmits.count == 1
        assert outcome["call"].retries == 1

    def test_lost_connect_answered_by_duplicate_setup(self, sim):
        # CONNECT (b->a) dies instead: the caller's retransmitted SETUP
        # hits the callee's duplicate path, which repeats the CONNECT
        # for the *same* VC rather than opening a second one.
        flap = ScheduledLoss(
            UniformLoss(1.0, rng=RandomStreams(1).stream("flap")),
            start=0.0,
            stop=9e-4,
        )
        outcome, sig_a, sig_b = self.outcome_of(sim, loss_ba=flap)
        assert outcome["call"].state is CallState.ACTIVE
        assert sig_b.setup_duplicates.count == 1
        user_vcs = [
            vc for vc in sig_b.interface.vc_table if not vc.address.is_reserved
        ]
        assert len(user_vcs) == 1

    def test_retry_exhaustion_is_terminal(self, sim):
        dead = UniformLoss(1.0, rng=RandomStreams(1).stream("flap"))
        outcome, sig_a, _ = self.outcome_of(sim, loss_ab=dead)
        assert isinstance(outcome["error"], CallTimeout)
        assert isinstance(outcome["error"], CallRefused)  # same except arm
        call = outcome["call"]
        assert call.state is CallState.FAILED
        assert call.state.terminal
        assert call.retries == self.TIMERS.max_retries
        assert sig_a.calls_timed_out.count == 1
        assert sig_a.unresolved_calls == []

    def test_lossless_path_needs_no_retransmission(self, sim):
        outcome, sig_a, sig_b = self.outcome_of(sim)
        assert outcome["call"].state is CallState.ACTIVE
        assert sig_a.setup_retransmits.count == 0
        assert sig_a.calls_timed_out.count == 0

    def test_unconfirmed_release_clears_locally(self, sim):
        # Connect cleanly, then the link dies before RELEASE crosses:
        # T308 retries, then the forced local clear closes the VC.
        flap = ScheduledLoss(
            UniformLoss(1.0, rng=RandomStreams(1).stream("flap")),
            start=2e-3,
            stop=1.0,
        )
        a, b, sig_a, sig_b = _signalling_pair(sim, self.TIMERS, loss_ab=flap)
        states = []

        def caller():
            call = sig_a.place_call()
            yield call.connected
            yield sim.timeout(3e-3)  # release once the link is dark
            yield sig_a.release_call(call)
            states.append(call.state)

        sim.process(caller())
        sim.run(until=0.05)
        assert states == [CallState.RELEASED]
        assert sig_a.release_retransmits.count == self.TIMERS.max_retries
        assert sig_a.unresolved_calls == []
        assert [vc for vc in a.vc_table if not vc.address.is_reserved] == []


# -- oam ping watchdog ------------------------------------------------------


class TestPingWatchdog:
    def build(self, sim, loss_ab=None):
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        connect(sim, a, b, loss_ab=loss_ab)
        vc = a.open_vc()
        b.open_vc(address=vc.address)
        return a, b, vc.address

    def test_unanswered_ping_reaped_not_leaked(self, sim):
        dead = UniformLoss(1.0, rng=RandomStreams(1).stream("flap"))
        a, b, vc = self.build(sim, loss_ab=dead)
        errors = []

        def pinger():
            try:
                yield a.oam_ping(vc, timeout=1e-3)
            except OamPingTimeout as exc:
                errors.append(exc)

        sim.process(pinger())
        sim.run(until=0.01)
        assert len(errors) == 1
        assert a.stats().oam_ping_timeouts == 1
        assert a._oam_pending == {}

    def test_retry_rides_out_a_short_outage(self, sim):
        flap = ScheduledLoss(
            UniformLoss(1.0, rng=RandomStreams(1).stream("flap")),
            start=0.0,
            stop=5e-4,
        )
        a, b, vc = self.build(sim, loss_ab=flap)
        rtts = []

        def pinger():
            rtts.append((yield a.oam_ping(vc, timeout=1e-3, retries=2)))

        sim.process(pinger())
        sim.run(until=0.01)
        assert len(rtts) == 1
        # The retry re-arms the clock: the RTT is the retry's own trip,
        # not time-since-first-probe.
        assert rtts[0] < 1e-3
        assert a.stats().oam_ping_retries == 1
        assert a.stats().oam_ping_timeouts == 0

    def test_timeout_must_be_positive(self, sim):
        a, b, vc = self.build(sim)
        with pytest.raises(ValueError):
            a.oam_ping(vc, timeout=0.0)


# -- link supervision --------------------------------------------------------


SUPERVISION = SupervisorConfig(
    cc_period=2e-4,
    cc_silence=7e-4,
    alarm_repeat=2e-4,
    alarm_silence=7e-4,
    recovery_hold=5e-4,
)


def _supervised_pair(sim, flap_start=2e-3, flap_down=2e-3):
    a = HostNetworkInterface(sim, aurora_oc3(), name="a")
    b = HostNetworkInterface(sim, aurora_oc3(), name="b")
    flap = ScheduledLoss(
        UniformLoss(1.0, rng=RandomStreams(1).stream("flap")),
        start=flap_start,
        stop=flap_start + flap_down,
    )
    connect(sim, a, b, loss_ab=flap)
    sup_a = LinkSupervisor(sim, a, config=SUPERVISION)
    sup_b = LinkSupervisor(sim, b, config=SUPERVISION)
    return a, b, sup_a, sup_b


class TestLinkSupervisor:
    def test_flap_drives_both_ends_down_and_back_up(self, sim):
        a, b, sup_a, sup_b = _supervised_pair(sim)
        history = {"a": [], "b": []}
        sup_a.on_state_change = lambda old, new: history["a"].append(new)
        sup_b.on_state_change = lambda old, new: history["b"].append(new)
        sup_a.start()
        sup_b.start()
        sim.run(until=0.012)
        # b loses the inbound CC flow (local LOC); a only learns via RDI.
        assert sup_b.loc_events >= 1
        assert sup_a.alarms_received >= 1
        assert sup_b.rdi_cells_sent >= 1
        for side in ("a", "b"):
            assert history[side][0] is LinkState.DOWN
            assert history[side][-1] is LinkState.UP
            assert LinkState.RECOVERING in history[side]
        assert sup_a.state is LinkState.UP
        assert sup_b.state is LinkState.UP

    def test_loc_detected_within_window_plus_period(self, sim):
        a, b, sup_a, sup_b = _supervised_pair(sim, flap_start=2e-3)
        down_at = []
        sup_b.on_state_change = lambda old, new: down_at.append(
            (new, sim.now)
        )
        sup_a.start()
        sup_b.start()
        sim.run(until=0.01)
        downs = [t for state, t in down_at if state is LinkState.DOWN]
        assert downs
        # Last heartbeat crosses just before the flap at 2 ms; LOC (and
        # DOWN) must land within one silence window + one CC period.
        assert downs[0] <= 2e-3 + SUPERVISION.cc_silence + SUPERVISION.cc_period

    def test_protected_vc_alarmed_and_reported_on_recovery(self, sim):
        a, b, sup_a, sup_b = _supervised_pair(sim)
        user_vc = VcAddress(0, 150)
        sup_b.protect(user_vc)
        alarmed_seen = []
        recovered = []
        sup_a.on_vc_alarm = lambda vc, kind: alarmed_seen.append((vc, kind))
        sup_a.on_recovered = recovered.append
        sup_a.start()
        sup_b.start()
        sim.run(until=0.012)
        # b's repeater sends RDI on the protected VC; a records it.
        assert (user_vc, RDI) in alarmed_seen
        assert recovered and user_vc in recovered[0]
        assert sup_a.alarmed_vcs == set()  # cleared on UP

    def test_ais_is_answered_with_rdi(self, sim):
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        connect(sim, a, b)
        sup_b = LinkSupervisor(sim, b, config=SUPERVISION)
        sup_b.start()
        # Simulate an upstream mux relaying AIS into b's receive path.
        b.rx_engine.receive_cell(AlarmCell(OAM_MGMT_VC, AIS).encode())
        b.start()
        sim.run(until=2e-3)
        assert b.stats().oam_ais_received == 1
        assert sup_b.rdi_cells_sent >= 1
        assert a.stats().oam_rdi_received >= 1

    def test_loss_rate_evidence_degrades_without_downing(self, sim):
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        sup = LinkSupervisor(sim, a, config=SUPERVISION)
        sup.report_loss_rate(0.2)
        assert sup.state is LinkState.DEGRADED
        sup.report_loss_rate(0.0)
        assert sup.state is LinkState.UP
        sup.note_ping_timeout()
        assert sup.state is LinkState.DEGRADED
        assert sup.ping_timeouts_noted == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(cc_period=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(recovery_hold=-1e-3)


# -- call restoration --------------------------------------------------------


class TestCallRestorer:
    def test_tracks_caller_side_only(self, sim):
        a, b, sig_a, sig_b = _signalling_pair(sim, timers=None)
        sup_a = LinkSupervisor(sim, a, config=SUPERVISION)
        restorer = CallRestorer(sim, sig_a, sup_a)
        call = sig_a.place_call()
        assert restorer.track(call) is call
        sim.run(until=5e-3)
        callee_call = sig_b.call_for(call.call_ref, placed_here=False)
        assert callee_call is not None and not callee_call.is_caller
        with pytest.raises(ValueError):
            restorer.track(callee_call)

    def test_failed_call_replaced_on_recovery(self, sim):
        timers = SignallingTimers(
            t303=5e-4, backoff=2.0, cap=2e-3, max_retries=2, jitter=0.0
        )
        flap = ScheduledLoss(
            UniformLoss(1.0, rng=RandomStreams(1).stream("flap")),
            start=0.0,
            stop=6e-3,
        )
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        connect(sim, a, b, loss_ab=flap)
        sig_a = SignallingAgent(sim, a, timers=timers, streams=RandomStreams(3))
        SignallingAgent(sim, b, timers=timers, streams=RandomStreams(3))
        sup_a = LinkSupervisor(sim, a, config=SUPERVISION)
        sup_b = LinkSupervisor(sim, b, config=SUPERVISION)
        sup_a.start()
        sup_b.start()
        restored = []
        restorer = CallRestorer(
            sim, sig_a, sup_a, on_restored=lambda old, new: restored.append(
                (old, new)
            )
        )
        call = restorer.track(sig_a.place_call())
        sim.run(until=0.02)
        assert call.state is CallState.FAILED  # budget spent in the dark
        assert restored, "recovery should have re-placed the failed call"
        old, new = restored[0]
        assert old is call
        assert new.state is CallState.ACTIVE
        assert restorer.tracked == [new]
        assert restorer.calls_restored == 1
        assert sig_a.calls_restored.count == 1
        assert sig_a.unresolved_calls == []

    def test_alarmed_active_call_released_and_replaced(self, sim):
        a, b, sig_a, sig_b = _signalling_pair(sim, timers=None)
        sup_a = LinkSupervisor(sim, a, config=SUPERVISION)
        restorer = CallRestorer(sim, sig_a, sup_a)
        call = restorer.track(sig_a.place_call())
        sim.run(until=5e-3)
        assert call.state is CallState.ACTIVE
        # Hand the restorer the recovery report directly: the call's VC
        # was alarmed during the episode.
        restorer.restore(frozenset({call.address}))
        sim.run(until=0.01)
        assert call.state is CallState.RELEASED
        replacement = restorer.tracked[0]
        assert replacement is not call
        assert replacement.state is CallState.ACTIVE
        assert replacement.address != call.address

    def test_untouched_calls_left_alone(self, sim):
        a, b, sig_a, sig_b = _signalling_pair(sim, timers=None)
        sup_a = LinkSupervisor(sim, a, config=SUPERVISION)
        restorer = CallRestorer(sim, sig_a, sup_a)
        call = restorer.track(sig_a.place_call())
        sim.run(until=5e-3)
        restorer.restore(frozenset())  # nothing alarmed, nothing failed
        sim.run(until=0.01)
        assert restorer.tracked == [call]
        assert restorer.calls_restored == 0


# -- reassembly state across an outage --------------------------------------


class TestAlarmedVcReassembly:
    def test_stranded_contexts_expire_rather_than_leak(self, sim):
        from dataclasses import replace

        from repro.aal.interface import ReassemblyFailure

        cfg = replace(aurora_oc3(), reassembly_timeout=2e-3, reassembly_tick=5e-4)
        a = HostNetworkInterface(sim, cfg, name="a")
        b = HostNetworkInterface(sim, cfg, name="b")
        # The flap opens mid-frame and never closes: the PDU's tail is
        # lost and the partial context is stranded at b.
        flap = ScheduledLoss(
            UniformLoss(1.0, rng=RandomStreams(1).stream("flap")),
            start=3e-4,
            stop=1.0,
        )
        connect(sim, a, b, loss_ab=flap)
        vc = a.open_vc()
        b.open_vc(address=vc.address)
        received = []
        b.on_pdu = received.append

        def sender():
            yield a.send(vc.address, bytes(4096))

        sim.process(sender())
        sim.run(until=0.02)
        assert received == []
        reasm = b.rx_engine.reassembler
        assert reasm.open_cells() == 0, "partial context must not leak"
        assert reasm.stats.failures.get(ReassemblyFailure.TIMEOUT, 0) == 1
        assert b.stats().pdus_discarded == 1


# -- link-flap fault plan ----------------------------------------------------


class TestLinkFlapPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFlapPlan(down_for=0.0)
        with pytest.raises(ValueError):
            LinkFlapPlan(repeats=0)
        with pytest.raises(ValueError):
            LinkFlapPlan(repeats=2, period=1e-3, down_for=2e-3)

    def test_presets_registered(self):
        assert "link-flap" in PLAN_PRESETS
        assert "link-flap-recurring" in PLAN_PRESETS

    def test_campaign_with_flap_conserves_cells(self):
        campaign = FaultCampaign(
            aurora_oc3(),
            plans=[LinkFlapPlan(start=2e-3, down_for=2e-3)],
            spec=CampaignSpec(duration=0.01, sdu_size=4096),
            seed=11,
        )
        result = campaign.run()
        assert result.ledger.is_conserved
        assert result.ledger.link_lost > 0  # the outage really dropped cells

    def test_recurring_flap_windows(self):
        campaign = FaultCampaign(
            aurora_oc3(),
            plans=[
                LinkFlapPlan(
                    start=1e-3, down_for=1e-3, period=3e-3, repeats=2
                )
            ],
            spec=CampaignSpec(duration=0.01, sdu_size=4096),
            seed=11,
        )
        result = campaign.run()
        assert result.ledger.is_conserved


# -- R2 end-to-end invariants ------------------------------------------------


class TestR2Experiment:
    def test_recovery_arm_beats_baseline_and_keeps_the_books(self, tmp_path):
        from repro.resilience.experiment import run_r2

        result = run_r2(seeds=(1,))
        assert result.metrics["min_recovery_gain_mbps"] > 0
        assert result.metrics["stuck_calls_on"] == 0
        assert result.metrics["all_conserved"] == 1.0
        assert result.metrics["calls_restored_total"] >= 1
        series = result.series
        assert series.column("on_oam_cells")[0] > 0  # CC/alarms itemised
        assert series.column("on_conserved") == [1.0]
        assert series.column("off_conserved") == [1.0]

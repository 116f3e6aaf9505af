"""Call admission control: budget booking, reason codes, signalling wiring."""

import pytest

from repro.atm.cell import CELL_SIZE
from repro.atm.link import PhysicalLink, STS3C_155
from repro.atm.signalling import (
    CallRefused,
    CallState,
    MessageType,
    SignallingAgent,
    SignallingMessage,
)
from repro.nic import HostNetworkInterface, aurora_oc3, connect
from repro.tm import CacReject, CallAdmissionController


def setup_msg(call_ref: int, peak_rate_bps: float) -> SignallingMessage:
    return SignallingMessage(
        MessageType.SETUP,
        call_ref=call_ref,
        vpi=0,
        vci=100 + call_ref,
        peak_rate_bps=int(peak_rate_bps),
    )


def cells_per_second(peak_rate_bps: float) -> float:
    return peak_rate_bps / (CELL_SIZE * 8)


class TestAdmission:
    def link(self, sim):
        return PhysicalLink(sim, STS3C_155, sink=lambda c: None, name="l")

    def test_admits_until_peak_budget_exhausted(self, sim):
        cac = CallAdmissionController(sim)
        cac.add_link(self.link(sim), peak_budget=cells_per_second(100e6))
        assert cac.admit(setup_msg(1, 40e6))
        assert cac.admit(setup_msg(2, 40e6))
        assert not cac.admit(setup_msg(3, 40e6))
        assert cac.calls_admitted.count == 2
        assert cac.calls_rejected.count == 1
        assert cac.rejections == {CacReject.PEAK_OVERCOMMIT.value: 1}

    def test_sustained_budget_rejects_with_its_own_code(self, sim):
        cac = CallAdmissionController(sim, sustained_fraction=0.5)
        cac.add_link(
            self.link(sim),
            peak_budget=cells_per_second(1e9),
            sustained_budget=cells_per_second(30e6),
        )
        assert cac.admit(setup_msg(1, 40e6))  # books 20M sustained
        assert not cac.admit(setup_msg(2, 40e6))  # 40M > 30M budget
        assert cac.rejections == {CacReject.SUSTAINED_OVERCOMMIT.value: 1}

    def test_tightest_link_on_path_governs(self, sim):
        cac = CallAdmissionController(sim)
        cac.add_link(self.link(sim), peak_budget=cells_per_second(622e6))
        cac.add_link(self.link(sim), peak_budget=cells_per_second(50e6))
        assert cac.headroom() == pytest.approx(cells_per_second(50e6))
        assert not cac.admit(setup_msg(1, 100e6))

    def test_rejected_call_books_nothing(self, sim):
        cac = CallAdmissionController(sim)
        cac.add_link(self.link(sim), peak_budget=cells_per_second(50e6))
        cac.admit(setup_msg(1, 100e6))
        assert cac.booked_peak == 0.0

    def test_release_drains_the_books(self, sim):
        cac = CallAdmissionController(sim)
        cac.add_link(self.link(sim), peak_budget=cells_per_second(50e6))
        message = setup_msg(1, 40e6)
        assert cac.admit(message)
        assert not cac.admit(setup_msg(2, 40e6))

        class FakeCall:
            call_ref = message.call_ref
            is_caller = False

        cac.release(FakeCall())
        assert cac.booked_peak == 0.0
        assert cac.admit(setup_msg(3, 40e6))

    def test_release_of_unknown_call_is_harmless(self, sim):
        cac = CallAdmissionController(sim)
        cac.add_link(self.link(sim))

        class FakeCall:
            call_ref = 99
            is_caller = False

        cac.release(FakeCall())
        assert cac.booked_peak == 0.0


class TestSignallingIntegration:
    def test_guard_refuses_overcommitted_setups(self, sim):
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        link_ab, _ = connect(sim, a, b)
        sig_a = SignallingAgent(sim, a)
        sig_b = SignallingAgent(sim, b)
        cac = CallAdmissionController(sim)
        cac.add_link(link_ab, peak_budget=cells_per_second(100e6))
        cac.guard(sig_b)

        outcomes = []

        def caller(peak):
            call = sig_a.place_call(peak_rate_bps=peak)
            try:
                yield call.connected
                outcomes.append(("ok", call))
            except CallRefused:
                outcomes.append(("refused", call))

        for _ in range(3):
            sim.process(caller(40e6))
        sim.run(until=0.05)

        assert [kind for kind, _ in outcomes].count("ok") == 2
        assert [kind for kind, _ in outcomes].count("refused") == 1
        assert cac.rejections == {CacReject.PEAK_OVERCOMMIT.value: 1}

    def test_released_call_frees_budget_for_the_next(self, sim):
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        link_ab, _ = connect(sim, a, b)
        sig_a = SignallingAgent(sim, a)
        sig_b = SignallingAgent(sim, b)
        cac = CallAdmissionController(sim)
        cac.add_link(link_ab, peak_budget=cells_per_second(50e6))
        cac.guard(sig_b)

        outcomes = []

        def sequence():
            first = sig_a.place_call(peak_rate_bps=40e6)
            yield first.connected
            yield sig_a.release_call(first)
            second = sig_a.place_call(peak_rate_bps=40e6)
            try:
                yield second.connected
                outcomes.append("ok")
            except CallRefused:
                outcomes.append("refused")

        sim.process(sequence())
        sim.run(until=0.1)
        assert outcomes == ["ok"]
        assert cac.calls_admitted.count == 2

    def test_guarded_agents_own_call_drains_nothing(self, sim):
        # Both ends number their calls from 1: b's own call shares its
        # reference with the call b accepted from a.
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        link_ab, _ = connect(sim, a, b)
        sig_a = SignallingAgent(sim, a)
        sig_b = SignallingAgent(sim, b)
        cac = CallAdmissionController(sim)
        cac.add_link(link_ab)
        cac.guard(sig_b)
        calls = {}

        def place(agent, name, peak):
            call = calls[name] = agent.place_call(peak_rate_bps=peak)
            yield call.connected

        def own_call():
            yield from place(sig_b, "b", 1e6)
            yield sig_b.release_call(calls["b"])

        sim.process(place(sig_a, "a", 40e6))
        sim.run(until=0.01)
        sim.process(own_call())
        sim.run(until=0.02)

        assert calls["a"].call_ref == calls["b"].call_ref == 1
        assert calls["a"].state is CallState.ACTIVE
        assert calls["b"].state is CallState.RELEASED
        booked = cells_per_second(40e6)
        assert cac.booked_peak == pytest.approx(booked)
        assert cac.headroom() == pytest.approx(link_ab.spec.cell_rate - booked)

    def test_guard_composes_with_existing_policy(self, sim):
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        link_ab, _ = connect(sim, a, b)
        sig_a = SignallingAgent(sim, a)
        sig_b = SignallingAgent(sim, b, on_setup=lambda message: False)
        cac = CallAdmissionController(sim)
        cac.add_link(link_ab)
        cac.guard(sig_b)

        refused = []

        def caller():
            call = sig_a.place_call(peak_rate_bps=1e6)
            try:
                yield call.connected
            except CallRefused:
                refused.append(call)

        sim.process(caller())
        sim.run(until=0.05)
        # The pre-existing policy said no before CAC ever booked.
        assert len(refused) == 1
        assert cac.calls_admitted.count == 0
        assert cac.calls_rejected.count == 0

"""Signalling-lite: message codec and end-to-end call control."""

import pytest

from repro.atm import VcAddress
from repro.atm.signalling import (
    Call,
    CallRefused,
    CallState,
    MessageType,
    SIGNALLING_VC,
    SignallingAgent,
    SignallingMessage,
)
from repro.nic import HostNetworkInterface, aurora_oc3, connect


def build_pair(sim, on_setup=None):
    a = HostNetworkInterface(sim, aurora_oc3(), name="a")
    b = HostNetworkInterface(sim, aurora_oc3(), name="b")
    connect(sim, a, b)
    return a, b, SignallingAgent(sim, a), SignallingAgent(sim, b, on_setup=on_setup)


class TestCodec:
    def test_roundtrip(self):
        msg = SignallingMessage(
            MessageType.SETUP, call_ref=42, vpi=3, vci=700, peak_rate_bps=20_000_000
        )
        assert SignallingMessage.decode(msg.encode()) == msg

    def test_encoding_is_fixed_size(self):
        assert len(SignallingMessage(MessageType.RELEASE, 1).encode()) == 18

    def test_bad_magic_rejected(self):
        data = bytearray(SignallingMessage(MessageType.CONNECT, 1).encode())
        data[0] = 0x00
        with pytest.raises(ValueError):
            SignallingMessage.decode(bytes(data))

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            SignallingMessage.decode(b"\x5a\x01")


class TestCallControl:
    def test_setup_connect_opens_vc_both_ends(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        results = []

        def caller():
            call = sig_a.place_call()
            address = yield call.connected
            results.append(address)

        sim.process(caller())
        sim.run(until=0.05)
        address = results[0]
        assert a.vc_table.lookup(address) is not None
        assert b.vc_table.lookup(address) is not None
        assert sig_a.active_calls == 1
        assert sig_b.active_calls == 1

    def test_data_flows_on_signalled_vc(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        got = []
        sig_b.on_user_pdu = got.append

        def caller():
            call = sig_a.place_call()
            address = yield call.connected
            yield a.send(address, b"payload over a signalled VC")

        sim.process(caller())
        sim.run(until=0.05)
        assert [c.sdu for c in got] == [b"payload over a signalled VC"]

    def test_peak_rate_propagates_to_both_ends(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        results = []

        def caller():
            call = sig_a.place_call(peak_rate_bps=25e6)
            results.append((yield call.connected))

        sim.process(caller())
        sim.run(until=0.05)
        address = results[0]
        assert a.vc_table.lookup(address).peak_rate_bps == 25e6
        assert b.vc_table.lookup(address).peak_rate_bps == 25e6

    def test_release_closes_both_ends(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        results = []

        def caller():
            call = sig_a.place_call()
            address = yield call.connected
            yield sig_a.release_call(call)
            results.append(address)

        sim.process(caller())
        sim.run(until=0.05)
        address = results[0]
        assert a.vc_table.lookup(address) is None
        assert b.vc_table.lookup(address) is None
        assert sig_a.active_calls == 0
        assert sig_b.active_calls == 0

    def test_refusal_fails_connected_event(self, sim):
        a, b, sig_a, sig_b = build_pair(sim, on_setup=lambda m: False)
        outcomes = []

        def caller():
            call = sig_a.place_call()
            try:
                yield call.connected
            except CallRefused:
                outcomes.append("refused")

        sim.process(caller())
        sim.run(until=0.05)
        assert outcomes == ["refused"]
        assert sig_b.calls_refused.count == 1
        assert sig_a.active_calls == 0

    def test_admission_policy_sees_peak_rate(self, sim):
        seen = []

        def policy(message):
            seen.append(message.peak_rate_bps)
            return message.peak_rate_bps <= 50_000_000

        a, b, sig_a, sig_b = build_pair(sim, on_setup=policy)
        outcomes = []

        def caller():
            ok = sig_a.place_call(peak_rate_bps=40e6)
            yield ok.connected
            outcomes.append("accepted")
            too_big = sig_a.place_call(peak_rate_bps=90e6)
            try:
                yield too_big.connected
            except CallRefused:
                outcomes.append("refused")

        sim.process(caller())
        sim.run(until=0.05)
        assert outcomes == ["accepted", "refused"]
        assert seen == [40_000_000, 90_000_000]

    def test_multiple_concurrent_calls_get_distinct_vcs(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        addresses = []

        def caller():
            calls = [sig_a.place_call() for _ in range(3)]
            for call in calls:
                addresses.append((yield call.connected))

        sim.process(caller())
        sim.run(until=0.05)
        assert len(set(addresses)) == 3

    def test_release_of_inactive_call_rejected(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        call = Call(call_ref=99, state=CallState.IDLE, is_caller=True)
        with pytest.raises(ValueError):
            sig_a.release_call(call)

    def test_signalling_channel_is_reserved_vc(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        assert SIGNALLING_VC.is_signalling
        assert a.vc_table.lookup(SIGNALLING_VC) is not None

    def test_setup_latency_is_a_round_trip(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        times = []

        def caller():
            start = sim.now
            call = sig_a.place_call()
            yield call.connected
            times.append(sim.now - start)

        sim.process(caller())
        sim.run(until=0.05)
        # Two 18-byte PDUs + processing: order 100-400 us on this path.
        assert 50e-6 < times[0] < 1e-3

    def test_call_for_lookup(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        call = sig_a.place_call()
        assert sig_a.call_for(call.call_ref, placed_here=True) is call
        assert sig_a.call_for(call.call_ref, placed_here=False) is None
        assert sig_a.call_for(12345, placed_here=True) is None


class TestCallsFromBothEnds:
    """Both agents number their calls from 1: the call-reference flag
    tells each agent's own calls from the far end's."""

    def test_flag_rides_the_top_bit_of_the_reference(self):
        msg = SignallingMessage(MessageType.CONNECT, 7, call_ref_flag=True)
        data = msg.encode()
        assert data[2:6] == (0x80000000 | 7).to_bytes(4, "big")
        assert SignallingMessage.decode(data) == msg
        with pytest.raises(ValueError):
            SignallingMessage(MessageType.SETUP, 1 << 31).encode()

    def test_calls_placed_from_both_ends_connect_and_release(self, sim):
        a, b, sig_a, sig_b = build_pair(sim)
        outcomes = []

        def caller(agent, start):
            yield sim.timeout(start)
            call = agent.place_call()
            address = yield call.connected
            yield sim.timeout(2e-3)
            yield agent.release_call(call)
            outcomes.append((agent.name, call.call_ref, address, call.state))

        # b places its call while a's, with the same reference, is up.
        sim.process(caller(sig_a, 0.0))
        sim.process(caller(sig_b, 1e-3))
        sim.run(until=0.01)
        assert outcomes == [
            ("a.sig", 1, VcAddress(0, 32), CallState.RELEASED),
            ("b.sig", 1, VcAddress(0, 33), CallState.RELEASED),
        ]
        assert sig_a.unresolved_calls == sig_b.unresolved_calls == []
        for nic in (a, b):
            assert [vc.address for vc in nic.vc_table] == [SIGNALLING_VC]

    def test_crossing_setups_refuse_both_calls_cleanly(self, sim):
        # Placed at once, each SETUP reaches an agent that answers it
        # with its first free VC, 0/32 at both ends (glare).  Each
        # caller refuses the CONNECT naming a VC it already uses and
        # clears the far end's half: nothing is left open or pending.
        a, b, sig_a, sig_b = build_pair(sim)
        calls = [sig_a.place_call(), sig_b.place_call()]
        sim.run(until=0.01)
        assert [call.call_ref for call in calls] == [1, 1]
        assert [call.state for call in calls] == [CallState.REFUSED] * 2
        for call in calls:
            assert isinstance(call.connected.exception, CallRefused)
        assert sig_a.unresolved_calls == sig_b.unresolved_calls == []
        assert sig_a.active_calls == sig_b.active_calls == 0
        for nic in (a, b):
            assert [vc.address for vc in nic.vc_table] == [SIGNALLING_VC]

"""ABR rate loop: AIMD updates, turnaround, ERICA stamping, convergence."""

import pytest

from repro.atm import VcAddress
from repro.atm.link import PhysicalLink
from repro.atm.mux import OutputPort
from repro.atm.switch import AtmSwitch
from repro.nic import HostNetworkInterface, aurora_oc3, connect
from repro.tm import AbrAgent, AbrParams, EricaAllocator, RmCell
from repro.tm.experiment import _bottleneck_run
from repro.workloads.generators import GreedySource

VC = VcAddress(0, 32)


def make_agent(sim):
    nic = HostNetworkInterface(sim, aurora_oc3(), name="src")
    return nic, AbrAgent(sim, nic)


def backward(vc=VC, er=1e12, ccr=0.0, ci=False, ni=False):
    return RmCell(vc=vc, forward=False, er=er, ccr=ccr, ci=ci, ni=ni).encode()


class TestParams:
    def test_initial_rate_defaults_to_pcr_over_16(self):
        params = AbrParams(pcr=1600.0)
        assert params.initial_rate == pytest.approx(100.0)

    def test_icr_clamped_into_contract(self):
        assert AbrParams(pcr=100.0, icr=500.0).initial_rate == 100.0
        assert AbrParams(pcr=100.0, mcr=20.0, icr=1.0).initial_rate == 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AbrParams(pcr=0.0)
        with pytest.raises(ValueError):
            AbrParams(pcr=10.0, mcr=20.0)
        with pytest.raises(ValueError):
            AbrParams(pcr=10.0, rif=0.0)
        with pytest.raises(ValueError):
            AbrParams(pcr=10.0, nrm=1)


class TestSourceAimd:
    def test_additive_increase_on_clean_rm(self, sim):
        _, agent = make_agent(sim)
        agent.add_vc(VC, AbrParams(pcr=1000.0, icr=100.0, rif=0.1))
        agent.receive_rm_cell(backward())
        assert agent.acr_of(VC) == pytest.approx(200.0)
        assert agent.rate_increases.count == 1

    def test_multiplicative_decrease_on_ci(self, sim):
        _, agent = make_agent(sim)
        agent.add_vc(VC, AbrParams(pcr=1000.0, icr=800.0, rdf=0.5))
        agent.receive_rm_cell(backward(ci=True))
        assert agent.acr_of(VC) == pytest.approx(400.0)
        assert agent.rate_decreases.count == 1

    def test_ni_freezes_the_rate(self, sim):
        _, agent = make_agent(sim)
        agent.add_vc(VC, AbrParams(pcr=1000.0, icr=500.0))
        agent.receive_rm_cell(backward(ni=True))
        assert agent.acr_of(VC) == pytest.approx(500.0)

    def test_explicit_rate_caps_the_acr(self, sim):
        _, agent = make_agent(sim)
        agent.add_vc(VC, AbrParams(pcr=1000.0, icr=900.0))
        agent.receive_rm_cell(backward(er=300.0))
        assert agent.acr_of(VC) == pytest.approx(300.0)

    def test_mcr_floors_every_decrease(self, sim):
        _, agent = make_agent(sim)
        agent.add_vc(VC, AbrParams(pcr=1000.0, mcr=50.0, icr=60.0, rdf=0.9))
        agent.receive_rm_cell(backward(ci=True, er=1.0))
        assert agent.acr_of(VC) == pytest.approx(50.0)

    def test_pacing_interval_tracks_acr(self, sim):
        _, agent = make_agent(sim)
        agent.add_vc(VC, AbrParams(pcr=1000.0, icr=250.0))
        assert agent.interval_of(VC) == pytest.approx(1.0 / 250.0)
        assert agent.interval_of(VcAddress(0, 99)) is None

    def test_rm_cell_every_nrm_data_cells(self, sim):
        _, agent = make_agent(sim)
        agent.add_vc(VC, AbrParams(pcr=1000.0, nrm=4))
        # The first data cell primes the loop with an immediate RM cell.
        sequence = [agent.data_cell_sent(VC) is not None for _ in range(9)]
        assert sequence == [True, False, False, False, True,
                            False, False, False, True]
        assert agent.rm_sent.count == 3

    def test_forward_rm_carries_current_ccr(self, sim):
        _, agent = make_agent(sim)
        agent.add_vc(VC, AbrParams(pcr=1000.0, icr=125.0, nrm=2))
        cell = agent.data_cell_sent(VC)
        rm = RmCell.decode(cell)
        assert rm.forward
        assert rm.ccr == pytest.approx(125.0)
        assert rm.er == pytest.approx(1000.0)

    def test_malformed_rm_counted_not_raised(self, sim):
        _, agent = make_agent(sim)
        cell = backward()
        payload = bytearray(cell.payload)
        payload[3] ^= 0x55
        agent.receive_rm_cell(
            type(cell)(
                vpi=cell.vpi, vci=cell.vci,
                payload=bytes(payload), pti=cell.pti,
            )
        )
        assert agent.rm_bad.count == 1
        assert agent.rm_received.count == 0


class TestDestination:
    def test_efci_latch_sets_ci_once(self, sim):
        nic, agent = make_agent(sim)
        sent = []
        nic.inject_cell = sent.append
        data = RmCell(vc=VC).encode().with_header(pti=0b010)  # EFCI-marked
        agent.observe_cell(data)
        agent.receive_rm_cell(RmCell(vc=VC, forward=True, er=500.0).encode())
        assert len(sent) == 1
        turned = RmCell.decode(sent[0])
        assert not turned.forward
        assert turned.ci
        assert turned.er == 500.0
        # The latch clears once reported.
        agent.receive_rm_cell(RmCell(vc=VC, forward=True).encode())
        assert not RmCell.decode(sent[1]).ci

    def test_unmarked_traffic_turns_around_clean(self, sim):
        nic, agent = make_agent(sim)
        sent = []
        nic.inject_cell = sent.append
        agent.receive_rm_cell(RmCell(vc=VC, forward=True).encode())
        assert not RmCell.decode(sent[0]).ci
        assert agent.rm_turnaround.count == 1


class TestErica:
    def build(self, sim, weight_of=None, target=0.5):
        spec = aurora_oc3().link
        link = PhysicalLink(sim, spec, sink=lambda c: None, name="out")
        port = OutputPort(sim, link, name="p")
        switch = AtmSwitch(sim, [port], name="sw")
        erica = EricaAllocator(
            sim, switch, target_utilization=target,
            interval=1e-3, weight_of=weight_of,
        )
        return spec, port, switch, erica

    def test_attaches_to_switch_tm_hook(self, sim):
        _, _, switch, erica = self.build(sim)
        assert switch.tm is erica

    def test_startup_stamps_fair_share(self, sim):
        spec, port, _, erica = self.build(sim)
        cell = RmCell(vc=VC, forward=True, er=spec.cell_rate).encode()
        out = erica.on_cell(port, cell)
        rm = RmCell.decode(out)
        # One active VC, no completed window: ER = whole target rate.
        assert rm.er == pytest.approx(0.5 * spec.cell_rate)
        assert erica.rm_stamped.count == 1

    def test_weighted_split_between_active_vcs(self, sim):
        other = VcAddress(0, 33)
        weights = {VC: 3, other: 1}
        spec, port, _, erica = self.build(sim, weight_of=weights.get)
        erica.on_cell(port, RmCell(vc=other, forward=True, er=1e12).encode())
        out = erica.on_cell(
            port, RmCell(vc=VC, forward=True, er=1e12).encode()
        )
        target = 0.5 * spec.cell_rate
        assert RmCell.decode(out).er == pytest.approx(target * 3 / 4)

    def test_never_raises_er(self, sim):
        spec, port, _, erica = self.build(sim)
        cell = RmCell(vc=VC, forward=True, er=10.0).encode()
        out = erica.on_cell(port, cell)
        assert RmCell.decode(out).er == 10.0
        assert erica.rm_stamped.count == 0

    def test_backward_and_user_cells_pass_untouched(self, sim):
        _, port, _, erica = self.build(sim)
        back = RmCell(vc=VC, forward=False, er=123.0).encode()
        assert RmCell.decode(erica.on_cell(port, back)).er == 123.0
        user = RmCell(vc=VC).encode().with_header(pti=0)
        assert erica.on_cell(port, user) is user

    def test_overload_factor_scales_ccr_term(self, sim):
        spec, port, _, erica = self.build(sim)
        target = 0.5 * spec.cell_rate
        # Saturate one window at 2x the target input rate.
        n = int(2 * target * 1e-3)
        user = RmCell(vc=VC).encode().with_header(pti=0)
        for _ in range(n):
            erica.on_cell(port, user)
        sim.run(until=1.5e-3)
        ccr = target  # source currently at the whole target
        out = erica.on_cell(
            port, RmCell(vc=VC, forward=True, er=1e12, ccr=ccr).encode()
        )
        rm = RmCell.decode(out)
        # z ~= 2, so CCR/z ~= target/2; fair share (one VC) = target wins.
        assert rm.er == pytest.approx(target, rel=0.05)


class TestClosedLoop:
    def test_end_to_end_loop_reaches_destination_and_back(self, sim):
        a = HostNetworkInterface(sim, aurora_oc3(), name="a")
        b = HostNetworkInterface(sim, aurora_oc3(), name="b")
        connect(sim, a, b)
        a.open_vc(address=VC)
        b.open_vc(address=VC)
        src = AbrAgent(sim, a)
        dst = AbrAgent(sim, b)
        spec = aurora_oc3().link
        src.add_vc(VC, AbrParams(pcr=spec.cell_rate, icr=spec.cell_rate / 8))
        GreedySource(sim, a, VC, 1528).start()
        a.start()
        b.start()
        sim.run(until=0.005)
        assert src.rm_sent.count > 0
        assert dst.rm_turnaround.count == dst.rm_received.count > 0
        assert src.rm_received.count > 0
        assert src.rate_increases.count > 0
        # Uncongested point-to-point: the ACR climbs toward the PCR.
        assert src.acr_of(VC) > spec.cell_rate / 8

    def test_bottleneck_converges_to_weighted_fair_shares(self):
        on = _bottleneck_run(
            seed=1, closed_loop=True, duration=0.05, warmup=0.02,
            n_sources=3, buffer_cells=256, efci_threshold=64, sdu_size=1528,
        )
        assert on["utilization"] >= 0.9
        assert on["fair_dev"] <= 0.10
        assert on["peak_queue"] < 256
        assert on["dropped_full"] == 0

    def test_open_loop_collapses_at_the_same_seed(self):
        off = _bottleneck_run(
            seed=1, closed_loop=False, duration=0.05, warmup=0.02,
            n_sources=3, buffer_cells=256, efci_threshold=64, sdu_size=1528,
        )
        assert off["loss_ratio"] > 0.1
        assert off["peak_queue"] == 256
        assert off["goodput_mbps"] < 50.0


"""The scale plane: Testbed declarations, session churn, S1's contract.

Three layers of coverage:

- :class:`TestTestbed` exercises the declarative builder on its own --
  naming, validation errors, dynamic route install/teardown;
- :class:`TestSessionChurn` runs a shrunk churn history through the
  full S1 machinery (signalling, CAC, LRU CAM, ledger) and checks the
  observables hang together;
- :class:`TestMigrationByteIdentity` pins the Testbed migrations of C1
  and R2 against canonical-JSON fixtures captured from the hand-wired
  wiring, and :class:`TestUniformContract` introspects every registered
  ``run_*`` for the ``(config=None, *, seeds=None)`` signature shape
  (see EXPERIMENTS.md).
"""

import inspect
import json
import pathlib

import pytest

from repro.atm.addressing import VcAddress
from repro.net import Testbed as TopologyBuilder
from repro.nic.config import aurora_oc3
from repro.resilience.experiment import run_r2
from repro.results.experiments import canonical_result_json
from repro.runner.registry import REGISTRY, SWEEP_IDS
from repro.scale.experiment import _churn_run
from repro.sim.core import Simulator
from repro.tm.experiment import run_c1

DATA = pathlib.Path(__file__).parent / "data"


def _small_churn(seed=1, **overrides):
    """A churn history small enough for a unit test (~2k sessions/s)."""
    params = dict(
        duration=0.3,
        arrival_rate=400.0,
        holding_time=0.03,
        peak_rate_bps=64000.0,
        pdus_per_session=2,
        sdu_size=256,
        cam_entries=64,
        reassembly_quota=64,
    )
    params.update(overrides)
    return _churn_run(seed, **params)


class TestTestbed:
    def _two_switch(self):
        tb = TopologyBuilder(default_config=aurora_oc3())
        tb.add_host("a").add_host("b")
        tb.add_switch("sw1").add_switch("sw2")
        tb.link("a", "sw1")
        tb.link("sw1", "sw2", buffer_cells=64, port_name="mid")
        tb.link("sw2", "b", port_name="egress")
        return tb

    def test_build_names_everything(self):
        net = self._two_switch().build(Simulator())
        assert set(net.hosts) == {"a", "b"}
        assert set(net.switches) == {"sw1", "sw2"}
        assert set(net.links) == {"a->sw1", "sw1->sw2", "sw2->b"}
        assert set(net.ports) == {"mid", "egress"}
        assert net.ports["mid"].buffer_cells == 64

    def test_vc_opens_endpoints_and_routes(self):
        tb = self._two_switch()
        addr = VcAddress(0, 40)
        tb.vc(addr, ["a", "sw1", "sw2", "b"], peak_rate_bps=1e6)
        net = tb.build(Simulator())
        assert net.hosts["a"].vc_table.lookup(addr) is not None
        assert net.hosts["b"].vc_table.lookup(addr) is not None
        # One route per switch hop, keyed by the resolved input index.
        assert len(net.switches["sw1"]._routes) == 1
        assert len(net.switches["sw2"]._routes) == 1

    def test_dynamic_route_install_and_teardown(self):
        net = self._two_switch().build(Simulator())
        addr = VcAddress(0, 50)
        path = ["a", "sw1", "sw2", "b"]
        net.add_route(addr, path)
        assert net.switches["sw1"].route_for(0, addr)
        net.remove_route(addr, path)
        assert net.switches["sw1"].route_for(0, addr) is None

    def test_undeclared_hop_raises_at_route_time(self):
        net = self._two_switch().build(Simulator())
        # No b->sw2 link was declared, so the reverse path has no
        # input index for sw2 and the route helper must say which hop.
        with pytest.raises(KeyError, match="sw2"):
            net.add_route(VcAddress(0, 51), ["b", "sw2", "sw1", "a"])

    def test_duplicate_node_name_rejected(self):
        tb = TopologyBuilder()
        tb.add_host("x")
        with pytest.raises(ValueError, match="duplicate"):
            tb.add_switch("x")

    def test_unknown_node_in_link_rejected(self):
        tb = TopologyBuilder()
        tb.add_host("a")
        with pytest.raises(ValueError, match="unknown node"):
            tb.link("a", "ghost")

    def test_host_double_transmit_link_rejected(self):
        tb = self._two_switch()
        with pytest.raises(ValueError, match="transmit link"):
            tb.link("a", "sw1")

    def test_vc_endpoints_must_be_hosts(self):
        tb = self._two_switch()
        with pytest.raises(ValueError, match="must start and end at hosts"):
            tb.vc(VcAddress(0, 60), ["a", "sw1", "sw2"])

    def test_path_hop_without_link_rejected(self):
        tb = self._two_switch()
        with pytest.raises(ValueError, match="has no link"):
            tb.route(VcAddress(0, 61), ["b", "sw2"])


class TestSessionChurn:
    def test_churn_accounting_hangs_together(self):
        obs = _small_churn()
        assert obs["conserved"] == 1.0
        assert obs["placed"] > 50
        assert obs["released"] > 0
        assert obs["connected"] <= obs["placed"]
        assert (
            obs["connected"] + obs["refused"] + obs["failed"]
            <= obs["placed"]
        )
        assert obs["peak_active"] >= 1

    def test_small_cam_churns_and_accounts_misses(self):
        obs = _small_churn(cam_entries=16)
        roomy = _small_churn(cam_entries=4096)
        assert obs["cam_evictions"] > 0
        assert obs["cam_capacity_misses"] > 0
        assert roomy["cam_evictions"] == 0.0
        assert roomy["cam_capacity_misses"] == 0.0

    def test_registry_cardinality_bounded(self):
        # Hundreds of sessions, O(top-K) metric families: the bound is
        # the point, the constant just needs to be far below the VC
        # population.
        obs = _small_churn()
        assert obs["placed"] > 100
        assert obs["registry_metrics"] < 150

    def test_seeds_decorrelate_histories(self):
        a = _small_churn(seed=1)
        b = _small_churn(seed=2)
        assert a != b


class TestMigrationByteIdentity:
    """C1 and R2 on Testbed must reproduce their hand-wired results.

    The fixtures are ``json.loads(canonical_result_json(...))`` captured
    from the pre-migration wiring at the bench-gate parameters; the
    comparison is canonical-JSON equality, i.e. every reported float is
    bit-identical.
    """

    def test_c1_matches_premigration_fixture(self):
        expected = json.loads((DATA / "c1_premigration.json").read_text())
        result = run_c1(seeds=[1, 2], duration=0.06, warmup=0.02)
        assert json.loads(canonical_result_json(result)) == expected

    def test_r2_matches_premigration_fixture(self):
        expected = json.loads((DATA / "r2_premigration.json").read_text())
        result = run_r2(seeds=[1, 2])
        assert json.loads(canonical_result_json(result)) == expected


class TestUniformContract:
    """Every registered run_* honours the uniform experiment contract."""

    @pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
    def test_signature_shape(self, experiment_id):
        sig = inspect.signature(REGISTRY[experiment_id].run)
        params = list(sig.parameters.values())
        first = params[0]
        assert first.name == "config"
        assert first.default is None
        assert first.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.POSITIONAL_ONLY,
        )
        by_name = sig.parameters
        assert "seeds" in by_name, f"{experiment_id} lacks seeds"
        assert by_name["seeds"].kind is inspect.Parameter.KEYWORD_ONLY
        assert by_name["seeds"].default is None
        # Everything after config is keyword-only with a default, so
        # any experiment can be invoked as run(config) or run().
        for param in params[1:]:
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"{experiment_id}: {param.name} is not keyword-only"
            )
            assert param.default is not inspect.Parameter.empty

    @pytest.mark.parametrize("experiment_id", sorted(SWEEP_IDS))
    def test_sweep_ids_take_runner_knobs(self, experiment_id):
        sig = inspect.signature(REGISTRY[experiment_id].run)
        for name in ("workers", "store", "log"):
            assert name in sig.parameters, (
                f"sweep experiment {experiment_id} lacks {name}"
            )

"""Pinned kernel counts: events processed and peak queue, per scenario.

Seconds vary by host; these counts do not.  Each scenario is fixed, so
its ``events_processed`` and ``peak_queue_occupancy`` are exact.  A
change that lowers a pin updates it and states the delta; a change
that raises one says why.
"""

import repro.results.experiments as experiments
import repro.scale.experiment as scale_experiment
from repro import HostNetworkInterface, Simulator, aurora_oc3, connect


def _recording_simulators(monkeypatch, module):
    """Make *module* build Simulators that the test can read back."""
    built = []

    class Recording(Simulator):
        def __init__(self) -> None:
            super().__init__()
            built.append(self)

    monkeypatch.setattr(module, "Simulator", Recording)
    return built


def _counts(sim):
    return sim.events_processed, sim.peak_queue_occupancy


def test_quickstart_exchange():
    # examples/quickstart.py: five PDUs, 64 B to 40 kB, over STS-3c.
    sim = Simulator()
    alice = HostNetworkInterface(sim, aurora_oc3(), name="alice")
    bob = HostNetworkInterface(sim, aurora_oc3(), name="bob")
    connect(sim, alice, bob)
    vc = alice.open_vc(name="alice->bob")
    bob.open_vc(address=vc.address)
    delivered = []
    bob.on_pdu = delivered.append
    for size in (64, 1500, 9180, 100, 40000):
        alice.post(vc.address, bytes(size))
    sim.run(until=0.05)
    assert len(delivered) == 5
    assert _counts(sim) == (3474, 7)


def test_short_f2_point(monkeypatch):
    # One SDU size, short window: the isolated-interface run, then the
    # end-to-end run with host software in the pipeline.
    built = _recording_simulators(monkeypatch, experiments)
    experiments.run_f2(sizes=(1500,), window=0.005)
    assert [_counts(sim) for sim in built] == [(6611, 7), (6402, 9)]


def test_short_session_churn(monkeypatch):
    # S1's topology and session engine at a tenth of a second.
    built = _recording_simulators(monkeypatch, scale_experiment)
    values = scale_experiment._churn_run(
        seed=1,
        duration=0.1,
        arrival_rate=2000.0,
        holding_time=0.05,
        peak_rate_bps=64000.0,
        pdus_per_session=2,
        sdu_size=256,
        cam_entries=64,
        reassembly_quota=512,
    )
    assert values["conserved"] == 1.0
    (sim,) = built
    assert _counts(sim) == (29148, 92)

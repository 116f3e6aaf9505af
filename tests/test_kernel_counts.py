"""Pinned kernel counts: events processed and peak queue, per scenario.

Seconds vary by host; these counts do not.  Each scenario is fixed, so
its ``events_processed`` and ``peak_queue_occupancy`` are exact, and so
are the Python-level calls of three exchanges: the quickstart (per-cell
work), 16 VCs of small PDUs (per-PDU work) and signalled sessions
through two switches (per-connection work).  A change that lowers a
pin updates it and states the delta; a change that raises one says why.
The signalled sessions also check that every cell received is one a
segmenter built, and that a released session leaves no per-connection
state behind, in the signalling agents, the transmit engines or the
switch ports.  Segmenting makes the same Python-level calls whatever
the SDU's length: no cell runs a Python constructor.  And each hop
queues its next step as the one object its owner bound when built: no
entry carries a bound method made for its cell or PDU.
"""

import gc
import os
import sys
import weakref
from heapq import heappush
from types import MethodType

import pytest

import repro
import repro.atm.link as link_module
import repro.host.bus as bus_module
import repro.host.cpu as cpu_module
import repro.host.dma as dma_module
import repro.nic.engine as engine_module
import repro.results.experiments as experiments
import repro.scale.experiment as scale_experiment
import repro.sim.core as core
from repro import HostNetworkInterface, Simulator, aurora_oc3, connect
from repro.aal.aal5 import Aal5Segmenter
from repro.atm.addressing import VcAddress
from repro.atm.link import PhysicalLink
from repro.atm.mux import OutputPort
from repro.atm.oam import LoopbackCell
from repro.atm.signalling import SIGNALLING_VC, CallState, SignallingAgent
from repro.baselines import HostSarConfig, HostSarInterface
from repro.net import Testbed as TopologyBuilder
from repro.nic.rx import RxEngine
from repro.nic.sarglue import Aal5Glue
from repro.scale.session import SessionEngine, SessionProfile
from repro.sim.process import Process
from repro.sim.random import RandomStreams


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


def _quickstart():
    """examples/quickstart.py: five PDUs, 64 B to 40 kB, over STS-3c."""
    sim = Simulator()
    alice = HostNetworkInterface(sim, aurora_oc3(), name="alice")
    bob = HostNetworkInterface(sim, aurora_oc3(), name="bob")
    connect(sim, alice, bob)
    vc = alice.open_vc(name="alice->bob")
    bob.open_vc(address=vc.address)
    delivered = []
    bob.on_pdu = delivered.append
    for size in (64, 1500, 9180, 100, 40000):
        alice.send(vc.address, bytes(size))
    return sim, delivered


def _small_pdus():
    """16 VCs between two NICs, 4 PDUs of 40-256 bytes each: the per-PDU
    path (OS send, descriptor, DMA, interrupt, OS receive) at 1-6 cells
    per PDU."""
    sim = Simulator()
    alice = HostNetworkInterface(sim, aurora_oc3(), name="alice")
    bob = HostNetworkInterface(sim, aurora_oc3(), name="bob")
    connect(sim, alice, bob)
    vcs = []
    for _ in range(16):
        vc = alice.open_vc()
        bob.open_vc(address=vc.address)
        vcs.append(vc.address)
    delivered = []
    bob.on_pdu = delivered.append
    for index in range(4 * len(vcs)):
        alice.send(vcs[index % len(vcs)], bytes(40 + 37 * index % 217))
    return sim, delivered


def _signalled_sessions():
    """12 signalled sessions through two Testbed switches (S1's shape).

    Each session places a call (SETUP, CONNECT), sends one 256-byte PDU
    on its new VC, paced to a 20 Mb/s contract, holds the VC and
    releases it (RELEASE, RELEASE_COMPLETE); the data VC's routes come
    and go with the call.  Every session has released by 0.02 s.
    """
    sim = Simulator()
    streams = RandomStreams(1)
    tb = TopologyBuilder(default_config=aurora_oc3())
    tb.add_host("caller").add_host("callee")
    tb.add_switch("sw1").add_switch("sw2")
    forward = ["caller", "sw1", "sw2", "callee"]
    reverse = forward[::-1]
    for path in (forward, reverse):
        for src, dst in zip(path, path[1:]):
            tb.link(src, dst)
    tb.route(SIGNALLING_VC, forward).route(SIGNALLING_VC, reverse)
    net = tb.build(sim)
    caller, callee = net.hosts["caller"], net.hosts["callee"]
    callee_sig = SignallingAgent(sim, callee, streams=streams, name="callee-sig")
    caller_sig = SignallingAgent(sim, caller, streams=streams, name="caller-sig")
    caller_sig.on_call_active = lambda call: net.add_route(call.address, forward)
    caller_sig.on_call_released = lambda call: net.remove_route(
        call.address, forward
    )
    engine = SessionEngine(
        sim,
        caller_sig,
        streams,
        SessionProfile(
            arrival_rate=5000.0,
            holding_time=1e-3,
            peak_rate_bps=20e6,
            max_sessions=12,
            sdu_size=256,
        ),
    )
    engine.start()
    callee.start()
    return sim, engine, caller_sig, callee_sig


def _python_calls(fn, *args, **kwargs):
    """Python-level calls into repro functions while ``fn(*args, **kwargs)``
    runs (``sim.run``, say).

    Frames named "<...>" (comprehensions, lambdas) are left out, so the
    count is the same whether or not the interpreter inlines
    comprehensions.
    """
    package = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package) and not code.co_name.startswith(
                "<"
            ):
                calls += 1

    # Garbage left by earlier tests (a suspended generator, say) must
    # not be finalised inside the counted run.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return calls


def test_quickstart_exchange():
    sim, delivered = _quickstart()
    sim.run(until=0.05)
    assert len(delivered) == 5
    assert _counts(sim) == (3474, 7)


def test_quickstart_python_calls():
    # The per-cell frames the datapath pays.
    sim, delivered = _quickstart()
    calls = _python_calls(sim.run, until=0.05)
    assert len(delivered) == 5
    assert calls == 21110


def test_small_pdus_exchange():
    sim, delivered = _small_pdus()
    sim.run(until=0.05)
    assert len(delivered) == 64
    assert _counts(sim) == (1802, 8)


def test_small_pdus_python_calls():
    # The per-PDU frames the host steps and the engines' PDU steps pay.
    sim, delivered = _small_pdus()
    calls = _python_calls(sim.run, until=0.05)
    assert len(delivered) == 64
    assert calls == 8672


def test_small_pdus_host_steps_queue_their_own_entries(monkeypatch):
    # The CPU, the DMA engines and the bus push each entry in the frame
    # that decides it: the run never calls Simulator.schedule_call.
    sim, delivered = _small_pdus()
    scheduled = []
    schedule_call = Simulator.schedule_call

    def recording(self, delay, fn, *args):
        scheduled.append(fn)
        schedule_call(self, delay, fn, *args)

    monkeypatch.setattr(Simulator, "schedule_call", recording)
    sim.run(until=0.05)
    assert len(delivered) == 64
    assert scheduled == []


def test_signalled_sessions_exchange():
    sim, engine, _caller_sig, _callee_sig = _signalled_sessions()
    sim.run(until=0.02)
    assert engine.sessions_released.count == 12
    assert _counts(sim) == (1771, 14)


def test_signalled_sessions_cells_built(monkeypatch):
    # The RX engines take exactly the cell objects the segmenters built:
    # both switches keep every label, so no hop builds a copy.
    built, taken = [], []
    segment = Aal5Segmenter.segment
    take = RxEngine._take

    def segmenting(self, *args, **kwargs):
        cells = segment(self, *args, **kwargs)
        built.extend(cells)
        return cells

    def taking(self, cell):
        taken.append(cell)
        take(self, cell)

    monkeypatch.setattr(Aal5Segmenter, "segment", segmenting)
    monkeypatch.setattr(RxEngine, "_take", taking)
    sim, engine, caller_sig, callee_sig = _signalled_sessions()
    sim.run(until=0.02)
    nics = (caller_sig.interface, callee_sig.interface)
    segmented = sum(nic.tx_engine.cells_sent.count for nic in nics)
    delivered = sum(nic.rx_engine.cells_received.count for nic in nics)
    assert segmented == delivered == 120
    assert len(built) == len(taken) == 120
    assert {id(cell) for cell in taken} == {id(cell) for cell in built}
    assert len({id(cell) for cell in built}) == 120


def test_signalled_sessions_python_calls():
    # The per-connection frames: signalling, route and VC set-up and
    # teardown (with one port-book forget per removed route entry), and
    # each VC's transmit state resolved once.
    sim, engine, _caller_sig, _callee_sig = _signalled_sessions()
    calls = _python_calls(sim.run, until=0.02)
    assert engine.sessions_released.count == 12
    assert calls == 9432


def test_released_routes_leave_no_port_books():
    # A port's per-VC loss tallies go with the route: once every session
    # has released, each forward port books only the signalling VC.
    sim, engine, _caller_sig, _callee_sig = _signalled_sessions()
    sim.run(until=0.02)
    assert engine.sessions_released.count == 12
    ports = {c.name: c for c in sim.components if isinstance(c, OutputPort)}
    for name in ("p:sw1->sw2", "p:sw2->callee"):
        assert list(ports[name].loss_ratio_by_vc()) == [SIGNALLING_VC], name


def test_released_sessions_leave_no_connection_state(monkeypatch):
    # Per-call state lives as long as the call: once every session has
    # released, no Call and no data VC's segmenter can be reached.
    segmenters = []
    init = Aal5Segmenter.__init__

    def recording(self, vc):
        init(self, vc)
        segmenters.append(weakref.ref(self))

    monkeypatch.setattr(Aal5Segmenter, "__init__", recording)
    sim, engine, caller_sig, callee_sig = _signalled_sessions()
    calls = {caller_sig: [], callee_sig: []}
    place_call = caller_sig.place_call

    def placing(*args, **kwargs):
        call = place_call(*args, **kwargs)
        calls[caller_sig].append(weakref.ref(call))
        return call

    caller_sig.place_call = placing
    callee_sig.on_call_active = lambda call: calls[callee_sig].append(
        weakref.ref(call)
    )
    pending = (CallState.IDLE, CallState.CALL_INITIATED, CallState.RELEASING)
    for until in (1.5e-3, 2e-3, 0.02):
        sim.run(until=until)
        # Every call mid-handshake, in the order the agent created it.
        for agent, refs in calls.items():
            live = [ref() for ref in refs]
            expected = [c for c in live if c is not None and c.state in pending]
            assert agent.unresolved_calls == expected
        del live, expected
    assert engine.sessions_released.count == 12
    assert caller_sig.unresolved_calls == callee_sig.unresolved_calls == []
    gc.collect()
    assert [ref() for ref in calls[caller_sig]] == [None] * 12
    assert [ref() for ref in calls[callee_sig]] == [None] * 12
    survivors = [ref() for ref in segmenters if ref() is not None]
    assert [segmenter.vc for segmenter in survivors] == [SIGNALLING_VC] * 2


def _queued_entries(monkeypatch):
    """Keep every entry pushed onto the kernel's heaps from now on.

    The kernel, the engine clock, the link and the host's CPU, DMA
    engine and bus each push their own entries.  The list holds every
    entry, and so every callable in one, alive: no two of them can
    share an ``id``.
    """
    queued = []

    def pushing(heap, entry):
        queued.append(entry)
        heappush(heap, entry)

    for module in (
        core, engine_module, link_module, cpu_module, dma_module, bus_module
    ):
        monkeypatch.setattr(module, "heappush", pushing)
    return queued


def test_each_cell_hop_queues_one_continuation(monkeypatch):
    # One 9180-byte SDU is 192 cells.  The TX charge completion, the
    # wire-out (with the framer's pull and frame steps as its
    # continuation) and the RX charge completion are each queued 192
    # times, always as the same object.
    queued = _queued_entries(monkeypatch)
    sim = Simulator()
    alice = HostNetworkInterface(sim, aurora_oc3(), name="alice")
    bob = HostNetworkInterface(sim, aurora_oc3(), name="bob")
    wire, _back = connect(sim, alice, bob)
    vc = alice.open_vc()
    bob.open_vc(address=vc.address)
    delivered = []
    bob.on_pdu = delivered.append
    alice.send(vc.address, bytes(9180))
    sim.run(until=0.01)
    assert [completion.cells for completion in delivered] == [192]
    calls = [(fn, args) for _time, _key, fn, args in queued if fn is not None]
    charged = [fn for fn, _args in calls if fn == alice.tx_engine._emit]
    wire_outs = [(fn, *args[1:]) for fn, args in calls if fn == wire._wire_out]
    taken = [fn for fn, _args in calls if fn == bob.rx_engine._cell_done]
    assert len(charged) == len(wire_outs) == len(taken) == 192
    assert {id(fn) for fn in charged} == {id(alice.tx_engine._then_emit)}
    assert {id(fn) for fn in taken} == {id(bob.rx_engine._then_cell_done)}
    framer = alice.framer
    assert {(id(fn), id(then), id(frame)) for fn, then, (frame,) in wire_outs} == {
        (id(wire._then_wire_out), id(framer._then_pull), id(framer._then_frame))
    }
    assert framer._then_pull == alice.tx_fifo.pull


def _bound_methods(value):
    """The bound methods in *value*, looking inside tuples and lists."""
    if isinstance(value, MethodType):
        yield value
    elif type(value) in (tuple, list):
        for item in value:
            yield from _bound_methods(item)


def test_each_pdu_step_queues_one_continuation(monkeypatch):
    # The per-PDU steps too (OS, CPU, ring, DMA, bus, interrupt and the
    # engines' PDU steps): over 64 small PDUs, each bound method queued,
    # as an entry's call or among its arguments, is one object per
    # owner and method.
    queued = _queued_entries(monkeypatch)
    sim, delivered = _small_pdus()
    sim.run(until=0.05)
    assert len(delivered) == 64
    objects = {}
    for _time, _key, fn, args in queued:
        if fn is not None:
            for method in _bound_methods((fn, args)):
                key = (id(method.__self__), method.__func__)
                objects.setdefault(key, set()).add(id(method))
    steps = {function.__qualname__ for _owner, function in objects}
    assert {
        "HostCpu._finish",
        "SystemBus.transfer_then",
        "DmaEngine._write_back",
        "DmaEngine._finish",
        "SystemBus._burst_done",
        "InterruptController._handled",
        "HostOs.receive_post_interrupt_then",
        "TxEngine._pdu_done",
        "RxEngine._deliver_to_host",
        "HostNetworkInterface._deliver",
    } <= steps
    assert all(len(ids) == 1 for ids in objects.values())


def test_segmenting_calls_do_not_grow_with_cells():
    # One SDU of 192 cells makes the same Python-level calls as one of a
    # single cell: each cell is built from the VC's header template, with
    # no Python constructor.
    segment = Aal5Glue().segmenter_for(VcAddress(0, 100))
    counts = []
    for size, cells in ((40, 1), (9180, 192)):
        meta = {"pdu_id": size, "posted_at": 0.0}
        counts.append(_python_calls(segment, bytes(size), 0, meta=meta))
        assert len(segment(bytes(size), 0, meta=meta)) == cells
    assert counts[0] == counts[1]


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


def _processes_started(monkeypatch):
    """Record every Process built from now on (perfbench's procs marker)."""
    started = []
    init = Process.__init__

    def counting(self, *args, **kwargs):
        started.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting)
    return started


def _host_sar_exchange(pdus):
    """*pdus* 1500-byte PDUs (32 cells each) through the host-SAR baseline."""
    sim = Simulator()
    config = HostSarConfig(rx_fifo_cells=4096)
    tx = HostSarInterface(sim, config, name="sar-tx")
    rx = HostSarInterface(sim, config, name="sar-rx")
    tx.attach_tx_link(PhysicalLink(sim, config.link, sink=rx.rx_input))
    vc = tx.open_vc()
    rx.open_vc(address=vc.address)
    delivered = []
    rx.on_pdu = delivered.append
    queued = [tx.send(vc.address, bytes(1500)) for _ in range(pdus)]
    sim.run()
    assert len(delivered) == pdus
    assert all(event.processed for event in queued)


def _injected_cells(cells):
    """*cells* F5 loopback cells injected at one NIC, reflected by the other."""
    sim = Simulator()
    alice = HostNetworkInterface(sim, aurora_oc3(), name="alice")
    bob = HostNetworkInterface(sim, aurora_oc3(), name="bob")
    connect(sim, alice, bob)
    vc = alice.open_vc()
    bob.open_vc(address=vc.address)
    for correlation in range(cells):
        alice.inject_cell(
            LoopbackCell(vc.address, correlation, to_be_looped=True).encode()
        )
    sim.run(until=0.01)
    assert bob.oam_reflections == cells


@pytest.mark.parametrize("exchange", [_host_sar_exchange, _injected_cells])
def test_no_process_per_operation(monkeypatch, exchange):
    # Host steps and hand-offs wait by continuation: the processes an
    # exchange starts do not grow with its PDUs or cells.
    started = _processes_started(monkeypatch)
    counts = []
    for size in (2, 6):
        del started[:]
        exchange(size)
        counts.append(len(started))
    assert counts[0] == counts[1]

"""The benchmark's workloads, built only through the simulator's public API.

Every workload runs the simulator's defaults (``Simulator()`` with no
``SimConfig``) and goes through four phases:

1. ``build`` -- topology, VCs, routes and traffic sources;
2. ``warm_up`` -- a fixed stretch of simulated time, so rings, queues,
   caches and (on churn) the session population reach steady state;
3. ``measure`` -- the timed stretch: a fixed amount of simulated time,
   run as equal slices so the caller can time each one;
4. ``drain`` -- sources stop and every outstanding operation completes,
   so the output check sees a quiescent system.

All inputs derive from the seed.  The workload never reads the host
clock; timing is the caller's business (``run.py``).
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import random
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import HostNetworkInterface, Simulator, aurora_oc3, connect
from repro.analysis import end_to_end_throughput_model_mbps
from repro.atm import SIGNALLING_VC, SignallingAgent
from repro.faults import CellConservationAuditor
from repro.net import Testbed
from repro.scale import SessionEngine, SessionProfile
from repro.sim import RandomStreams
from repro.tm import CallAdmissionController


class DeliveryCheck:
    """Exactly-once, in-order, byte-identical delivery, per VC.

    The sender calls :meth:`post` with each SDU it hands the interface;
    the receiver calls :meth:`deliver` with each completion.  A delivery
    must equal the oldest SDU still outstanding on its VC.  Every
    delivery is also folded into a running digest (VC, size, simulated
    delivery time, bytes), so two runs of one seed can be compared.
    """

    def __init__(self) -> None:
        self._pending: Dict[Any, Deque[bytes]] = collections.defaultdict(
            collections.deque
        )
        self.posted = 0
        self.delivered = 0
        self.failed = 0
        self._digest = hashlib.sha256()

    def post(self, vc, sdu: bytes) -> None:
        self._pending[vc].append(sdu)
        self.posted += 1

    def outstanding(self, vc=None) -> int:
        """SDUs posted but not yet resolved (on *vc*, or on every VC)."""
        if vc is not None:
            return len(self._pending[vc])
        return sum(len(queue) for queue in self._pending.values())

    def deliver(self, completion) -> bool:
        """Book one completion; True when it is the expected SDU."""
        sdu = completion.sdu
        self._digest.update(
            f"{completion.vc.vpi}.{completion.vc.vci}|{len(sdu)}|"
            f"{completion.delivered_at!r}|".encode()
        )
        self._digest.update(sdu)
        queue = self._pending.get(completion.vc)
        if queue and queue[0] == sdu:
            queue.popleft()
            self.delivered += 1
            return True
        try:
            skipped = queue.index(sdu) if queue else -1
        except ValueError:
            skipped = -1
        if skipped > 0:
            # The SDUs ahead of it were dropped (or overtaken).
            for _ in range(skipped + 1):
                queue.popleft()
            self.failed += skipped
            self.delivered += 1
            return False
        # Corrupted or duplicated: charge it to the head of the queue
        # when the size says the head is what was mangled.
        self.failed += 1
        if queue and len(queue[0]) == len(sdu):
            queue.popleft()
        return False

    def finish(self) -> int:
        """Fail whatever never arrived; returns the failure total."""
        self.failed += self.outstanding()
        self._pending.clear()
        return self.failed

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


class Workload:
    """One scenario instance: build, warm up, measure, drain, check."""

    name = ""
    #: Simulated seconds of warm-up before the measured phase.
    warm_up_s = 0.0
    #: Simulated seconds per host second on the reference host (see
    #: README.md); sizes the measured phase for a requested length.
    sim_per_host_s = 0.0

    def __init__(self, seed: int, measure_sim_s: float) -> None:
        self.seed = seed
        self.measure_sim_s = measure_sim_s
        self.sim: Optional[Simulator] = None
        self.hosts: List[HostNetworkInterface] = []
        self.auditor: Optional[CellConservationAuditor] = None
        self.check = DeliveryCheck()
        self.stopped = False

    @classmethod
    def for_seconds(cls, seed: int, seconds: float) -> "Workload":
        """A workload whose measured phase lasts about *seconds* here."""
        return cls(seed, seconds * cls.sim_per_host_s)

    # -- phases -----------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def _host_pair(self) -> Tuple[HostNetworkInterface, HostNetworkInterface]:
        """Two ``aurora_oc3`` hosts on a duplex link, audited tx -> rx."""
        sim = self.sim = Simulator()
        self.config = aurora_oc3()
        tx = HostNetworkInterface(sim, self.config, name="tx")
        rx = HostNetworkInterface(sim, self.config, name="rx")
        forward, _ = connect(sim, tx, rx)
        self.hosts = [tx, rx]
        self.auditor = CellConservationAuditor(forward, rx)
        return tx, rx

    def warm_up(self) -> None:
        self.sim.run(until=self.warm_up_s)

    def measure_slice(self, index: int, count: int) -> None:
        """Run slice *index* of *count* equal slices of the measured phase."""
        self.sim.run(until=self.warm_up_s + self.measure_sim_s * (index + 1) / count)

    def drain(self, step: float = 0.005, limit: float = 5.0) -> None:
        """Stop the sources and run until nothing is outstanding."""
        self.stopped = True
        deadline = self.sim.now + limit
        while self.busy() and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + step)

    def busy(self) -> bool:
        return self.check.outstanding() > 0

    # -- observations -----------------------------------------------------

    def cells_received(self) -> int:
        """Cells taken in by every host's receive engine so far."""
        return sum(nic.rx_engine.cells_received.count for nic in self.hosts)

    def verdict(self) -> Dict[str, Any]:
        """Output check after :meth:`drain`: counts, ledger and digest."""
        ledger = self.auditor.snapshot()
        self.check.finish()
        state = {
            "ledger": {"offered": ledger.offered, **ledger.breakdown()},
            **self.state(),
        }
        attempted, failed = self.operations()
        return {
            "attempted": attempted,
            "failed": failed,
            "conserved": ledger.is_conserved,
            "unaccounted": ledger.unaccounted,
            "digest": hashlib.sha256(
                json.dumps(state, sort_keys=True).encode()
            ).hexdigest(),
        }

    def operations(self) -> Tuple[int, int]:
        """(attempted, failed) operations: here, PDUs posted."""
        return self.check.posted, self.check.failed

    def state(self) -> Dict[str, Any]:
        """The simulated outcome the digest covers (ledger aside)."""
        return {
            "hosts": {
                nic.name: dataclasses.asdict(nic.stats()) for nic in self.hosts
            },
            "deliveries": self.check.hexdigest(),
        }

    def goodput_err_pct(self) -> float:
        """Simulated goodput's absolute error against the analytic model,
        in percent of the model (bulk; 0 where no model applies)."""
        return 0.0


class Bulk(Workload):
    """One VC, greedy sender, unique 9180-byte SDUs: per-cell work."""

    name = "bulk"
    SDU = 9180
    warm_up_s = 0.010
    sim_per_host_s = 0.042

    def build(self) -> None:
        tx, rx = self._host_pair()
        vc = tx.open_vc(name="bulk")
        rx.open_vc(address=vc.address)
        rx.on_pdu = self.check.deliver
        self.sim.process(self._sender(tx, vc.address))

    def _sender(self, nic, address):
        # Unique bytes per PDU keep the AAL5 CRC memo from hiding the
        # CRC loop; the TX ring stays full because send() blocks on it.
        rng = random.Random(f"bulk:{self.seed}")
        while not self.stopped:
            sdu = rng.randbytes(self.SDU)
            self.check.post(address, sdu)
            yield nic.send(address, sdu)

    def warm_up(self) -> None:
        super().warm_up()
        self._measured_from = (self.sim.now, self.check.delivered)

    def measure_slice(self, index: int, count: int) -> None:
        super().measure_slice(index, count)
        if index == count - 1:
            self._measured_to = (self.sim.now, self.check.delivered)

    def goodput_err_pct(self) -> float:
        (t0, pdus0), (t1, pdus1) = self._measured_from, self._measured_to
        goodput = (pdus1 - pdus0) * self.SDU * 8 / (t1 - t0) / 1e6
        model = end_to_end_throughput_model_mbps(self.config, self.SDU)
        return 100.0 * abs(goodput - model) / model


class Small(Workload):
    """16 VCs of 40-256-byte SDUs under a per-VC window: per-PDU work."""

    name = "small"
    VCS = 16
    #: Outstanding PDUs per VC.  16 x 3 = 48 stays under the receiver's
    #: 64 host buffers, so the buffer pool never runs dry.
    WINDOW = 3
    #: Distinct payloads, few enough for the AAL5 CRC memo to hold.
    POOL = 64
    MIN_SDU, MAX_SDU = 40, 256
    warm_up_s = 0.040
    sim_per_host_s = 0.150

    def build(self) -> None:
        tx, rx = self._host_pair()
        # One size per equal-width stratum of [MIN_SDU, MAX_SDU]: the
        # seed moves sizes and bytes, not the mix of cells per PDU.
        rng = random.Random(f"small:{self.seed}")
        span = self.MAX_SDU - self.MIN_SDU + 1
        self.pool = [
            rng.randbytes(
                self.MIN_SDU + int(span * (index + rng.random()) / self.POOL)
            )
            for index in range(self.POOL)
        ]
        self._waiting: Dict[Any, Any] = {}
        rx.on_pdu = self._delivered
        for index in range(self.VCS):
            vc = tx.open_vc(name=f"small{index}")
            rx.open_vc(address=vc.address)
            picks = random.Random(f"small:{self.seed}:{index}")
            self.sim.process(self._sender(tx, vc.address, picks))

    def _sender(self, nic, address, picks):
        while not self.stopped:
            while self.check.outstanding(address) >= self.WINDOW:
                wake = self.sim.event()
                self._waiting[address] = wake
                yield wake
                if self.stopped:
                    return
            sdu = self.pool[picks.randrange(self.POOL)]
            self.check.post(address, sdu)
            yield nic.send(address, sdu)

    def _delivered(self, completion) -> None:
        self.check.deliver(completion)
        wake = self._waiting.pop(completion.vc, None)
        if wake is not None:
            wake.trigger()


_FWD = ("caller", "sw1", "sw2", "callee")
_REV = ("callee", "sw2", "sw1", "caller")


class Churn(Workload):
    """S1's shape at a lower rate: per-connection work.

    Poisson sessions through two switches under CAC, with per-call
    routes and an LRU CAM smaller than the session population.  S1's
    end-of-hold probe PDU is replaced by a second PDU sent right after
    CONNECT: a probe of an LRU-evicted entry is dropped by design, and
    here every operation must succeed.
    """

    name = "churn"
    ARRIVAL_RATE = 2000.0
    HOLDING_TIME = 0.2
    PEAK_RATE_BPS = 64000.0
    SDU = 256
    #: Distinct first-PDU payloads, few enough for the CRC memo to hold.
    POOL = 16
    #: Smaller than the ~400 concurrent sessions, so LRU eviction runs.
    CAM_ENTRIES = 256
    REASSEMBLY_QUOTA = 512
    warm_up_s = HOLDING_TIME
    sim_per_host_s = 0.140

    def build(self) -> None:
        sim = self.sim = Simulator()
        streams = RandomStreams(self.seed)
        config = dataclasses.replace(
            aurora_oc3(),
            cam_entries=self.CAM_ENTRIES,
            cam_eviction="lru",
            reassembly_quota=self.REASSEMBLY_QUOTA,
        )
        tb = Testbed(default_config=config)
        tb.add_host("caller").add_host("callee")
        tb.add_switch("sw1").add_switch("sw2")
        tb.link("caller", "sw1")
        tb.link("sw1", "sw2", port_name="p-fwd")
        tb.link("sw2", "callee", port_name="p-egress")
        tb.link("callee", "sw2")
        tb.link("sw2", "sw1", port_name="p-rev")
        tb.link("sw1", "caller", port_name="p-ret")
        tb.route(SIGNALLING_VC, _FWD)
        tb.route(SIGNALLING_VC, _REV)
        net = self.net = tb.build(sim)
        caller, callee = net.hosts["caller"], net.hosts["callee"]
        self.hosts = [caller, callee]
        self.auditor = CellConservationAuditor(
            net.links["caller->sw1"],
            callee,
            switches=[net.switches["sw1"], net.switches["sw2"]],
            ports=[net.ports[p] for p in ("p-fwd", "p-egress", "p-rev", "p-ret")],
            extra_links=[
                net.links[name]
                for name in ("sw1->sw2", "sw2->callee", "sw2->sw1", "sw1->caller")
            ],
            extra_injections=[net.links["callee->sw2"]],
            extra_receivers=[caller],
        )
        callee_sig = SignallingAgent(
            sim, callee, streams=streams, name="callee-sig", shape_data_vcs=False
        )
        caller_sig = SignallingAgent(
            sim, caller, streams=streams, name="caller-sig", shape_data_vcs=False
        )
        cac = self.cac = CallAdmissionController(sim)
        cac.add_link(net.links["sw1->sw2"])
        cac.guard(callee_sig)
        caller_sig.on_call_active = lambda call: net.add_route(call.address, _FWD)
        caller_sig.on_call_released = lambda call: net.remove_route(
            call.address, _FWD
        )
        engine = self.engine = SessionEngine(
            sim,
            caller_sig,
            streams,
            SessionProfile(
                arrival_rate=self.ARRIVAL_RATE,
                holding_time=self.HOLDING_TIME,
                peak_rate_bps=self.PEAK_RATE_BPS,
                pdus_per_session=1,
                sdu_size=self.SDU,
            ),
        )
        self._engine_sdu = bytes(self.SDU)
        rng = random.Random(f"churn:{self.seed}")
        self._pool = [rng.randbytes(self.SDU) for _ in range(self.POOL)]
        self._picks = rng
        self._caller = caller
        callee_sig.on_user_pdu = self.check.deliver
        engine.on_session_active = self._session_active
        engine.start()
        callee.start()

    def _session_active(self, call, address) -> None:
        # Runs before the engine's own send, so this PDU goes first.
        sdu = self._pool[self._picks.randrange(self.POOL)]
        self.check.post(address, sdu)
        self.check.post(address, self._engine_sdu)
        self._caller.send(address, sdu)

    def drain(self, step: float = 0.05, limit: float = 10.0) -> None:
        self.engine.stop()
        super().drain(step, limit)

    def busy(self) -> bool:
        engine = self.engine
        resolved = (
            engine.sessions_released.count
            + engine.sessions_refused.count
            + engine.sessions_failed.count
        )
        return super().busy() or resolved < engine.sessions_placed.count

    def operations(self) -> Tuple[int, int]:
        """PDUs posted plus sessions placed; a session that never
        released (refused, timed out, or stuck) failed."""
        pdus, failed = super().operations()
        engine = self.engine
        placed = engine.sessions_placed.count
        return pdus + placed, failed + placed - engine.sessions_released.count

    def state(self) -> Dict[str, Any]:
        engine = self.engine
        cam = self.net.hosts["callee"].cam
        return {
            **super().state(),
            "cam": {
                "hits": cam.hits,
                "misses": cam.misses,
                "evictions": cam.evictions,
                "capacity_misses": cam.capacity_misses,
            },
            "sessions": {
                "placed": engine.sessions_placed.count,
                "connected": engine.sessions_connected.count,
                "released": engine.sessions_released.count,
                "peak_active": engine.peak_active,
                "setup_mean": repr(engine.setup_latency.mean),
            },
            "cac_admitted": self.cac.calls_admitted.count,
        }


WORKLOADS = {cls.name: cls for cls in (Bulk, Small, Churn)}

"""Unified metrics: named counters/gauges/histograms over live objects.

`NicStats` is an end-of-run snapshot; the FIFOs, buffer memory, engine
clocks and the fault auditor's conservation ledger each keep their own
ad-hoc tallies.  A :class:`MetricsRegistry` puts one namespace over all
of them: every metric is a *name* bound to a zero-argument reader over
the live object, with a declared kind (``counter`` / ``gauge`` /
``histogram``) and unit.  Because readers observe the live objects,
registration is free on the hot path -- nothing in the pipeline knows
the registry exists.

On top of the namespace the registry offers:

- :meth:`MetricsRegistry.snapshot` -- read every metric now;
- :meth:`MetricsRegistry.start_sampling` -- a simulation timer that
  snapshots every *period* seconds into per-metric
  :class:`~repro.sim.monitor.SeriesRecorder` time series;
- :meth:`MetricsRegistry.to_json` / :meth:`MetricsRegistry.to_csv` --
  export the snapshot and the sampled series.

:func:`instrument` registers the standard metric set for any supported
pipeline object -- it type-dispatches on the object's class through
:data:`INSTRUMENT_DISPATCH`, so one call covers every pipeline type.
See ``docs/OBSERVABILITY.md`` for the full name list and
``docs/SCALE.md`` for the cardinality rules.

Per-VC breakdowns (port occupancy, session goodput) are exported as
*bounded* top-K books via :func:`topk_book`: the K largest entries plus
an ``_other`` aggregate and a ``_keys`` cardinality count, so registry
size stays O(K) no matter how many thousands of VCs churn through a
run (see ``docs/SCALE.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, IO, List, Mapping, Optional, Union

from repro.sim.monitor import SeriesRecorder

#: Legal values for :attr:`Metric.kind`.
KINDS = ("counter", "gauge", "histogram")


@dataclass
class Metric:
    """One named observable: a reader over a live object."""

    name: str
    read: Callable[[], Any]
    kind: str = "gauge"
    unit: str = ""
    description: str = ""

    def value(self) -> Any:
        return self.read()


class MetricsRegistry:
    """A namespace of metrics with snapshotting and periodic sampling."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._metrics: Dict[str, Metric] = {}
        self.series: Dict[str, SeriesRecorder] = {}
        self._sampling = False
        self.samples_taken = 0

    # -- registration -----------------------------------------------------

    def register(
        self,
        name: str,
        read: Callable[[], Any],
        kind: str = "gauge",
        unit: str = "",
        description: str = "",
    ) -> Metric:
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r} (use {KINDS})")
        if name in self._metrics:
            raise ValueError(f"metric {name!r} already registered")
        metric = Metric(name, read, kind, unit, description)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, read, unit: str = "", description: str = ""):
        return self.register(name, read, "counter", unit, description)

    def gauge(self, name: str, read, unit: str = "", description: str = ""):
        return self.register(name, read, "gauge", unit, description)

    def histogram(self, name: str, read, unit: str = "", description: str = ""):
        """Register a reader returning a summary dict (mean/max/quantiles)."""
        return self.register(name, read, "histogram", unit, description)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    # -- reading ----------------------------------------------------------

    def read(self, name: str) -> Any:
        return self._metrics[name].value()

    def snapshot(self) -> Dict[str, Any]:
        """Read every registered metric right now."""
        return {name: m.value() for name, m in sorted(self._metrics.items())}

    # -- periodic sampling ------------------------------------------------

    def sample(self) -> None:
        """Take one time-stamped sample of every scalar metric."""
        now = self.sim.now
        self.samples_taken += 1
        for name, metric in self._metrics.items():
            value = metric.value()
            if not isinstance(value, (int, float)):
                continue  # histograms/dicts are snapshot-only
            series = self.series.get(name)
            if series is None:
                series = self.series[name] = SeriesRecorder(name)
            series.record(now, float(value))

    def start_sampling(self, period: float, until: Optional[float] = None) -> None:
        """Sample now and every *period* seconds after, up to *until*.

        Without *until* the sampler never stops, so the simulation must
        be run with a horizon.
        """
        if period <= 0:
            raise ValueError("sampling period must be positive")
        if self._sampling:
            raise RuntimeError("sampling already started")
        self._sampling = True

        def tick() -> None:
            self.sample()
            if until is None or self.sim.now + period <= until:
                self.sim.schedule_call(period, tick)

        tick()

    # -- export -----------------------------------------------------------

    def to_document(self) -> Dict[str, Any]:
        """Snapshot + sampled series as a JSON-ready dict."""
        return {
            "now": self.sim.now,
            "metrics": [
                {
                    "name": m.name,
                    "kind": m.kind,
                    "unit": m.unit,
                    "description": m.description,
                    "value": m.value(),
                }
                for m in (self._metrics[n] for n in self.names())
            ],
            "series": {
                name: {"times": s.times, "values": s.values}
                for name, s in sorted(self.series.items())
            },
        }

    def to_json(
        self, destination: Optional[Union[str, IO[str]]] = None
    ) -> str:
        """:meth:`to_document` as JSON text (also written to *destination*)."""
        text = json.dumps(self.to_document(), indent=2, sort_keys=True)
        if destination is not None:
            if isinstance(destination, str):
                with open(destination, "w", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                destination.write(text)
        return text

    def to_csv(
        self, destination: Optional[Union[str, IO[str]]] = None
    ) -> str:
        """Sampled time series as CSV: one time column, one per metric.

        Sampling happens for every metric at the same instants, so the
        series share a time base; any metric registered after sampling
        began is right-aligned with empty leading fields.
        """
        names = sorted(self.series)
        if not names:
            text = "t\n"
        else:
            times = self.series[names[0]].times
            for name in names:
                if len(self.series[name].times) > len(times):
                    times = self.series[name].times
            rows = ["t," + ",".join(names)]
            for i, t in enumerate(times):
                fields = [f"{t:.9f}"]
                for name in names:
                    series = self.series[name]
                    offset = len(times) - len(series.times)
                    j = i - offset
                    fields.append(f"{series.values[j]:g}" if j >= 0 else "")
                rows.append(",".join(fields))
            text = "\n".join(rows) + "\n"
        if destination is not None:
            if isinstance(destination, str):
                with open(destination, "w", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                destination.write(text)
        return text


# ---------------------------------------------------------------------------
# bounded per-key books
# ---------------------------------------------------------------------------

#: Default K for bounded per-VC books.  Small enough that a registry
#: over a 2,048-VC churn stays readable; large enough to show the
#: heavy hitters fairness analyses care about.
TOPK_DEFAULT = 8


def topk_book(values: Mapping[Any, float], k: int = TOPK_DEFAULT) -> Dict[str, float]:
    """Bound a per-key breakdown to the K largest entries.

    Returns the top-K items (by value, ties broken by key string for
    determinism) plus two aggregate entries: ``_other`` -- the summed
    value of everything not shown -- and ``_keys`` -- the full
    cardinality of the input book.  The result has at most ``k + 2``
    entries regardless of how many VCs the run multiplexes, which is
    what keeps metric cardinality O(K) instead of O(total VCs).
    """
    if k < 1:
        raise ValueError("topk_book needs k >= 1")
    items = sorted(values.items(), key=lambda kv: (-float(kv[1]), str(kv[0])))
    book: Dict[str, float] = {str(key): float(val) for key, val in items[:k]}
    book["_other"] = float(sum(float(val) for _, val in items[k:]))
    book["_keys"] = float(len(items))
    return book


# ---------------------------------------------------------------------------
# standard instrumentations
# ---------------------------------------------------------------------------


def _instrument_interface(
    registry: MetricsRegistry, nic, prefix: Optional[str] = None
) -> None:
    """Register the standard metric set for a `HostNetworkInterface`.

    Covers every live pipeline counter (the superset of what a
    `NicStats` snapshot flattens) plus the gauges a snapshot cannot
    carry: FIFO occupancy/fill, adaptor buffer-memory fill, engine
    utilisation, and DMA backlogs.
    """
    p = prefix or f"{nic.name}."
    tx, rx = nic.tx_engine, nic.rx_engine

    def count_of(counter):
        return lambda: counter.count

    for name, counter, description in (
        ("tx.pdus_sent", tx.pdus_sent, "PDUs segmented and completed"),
        ("tx.cells_sent", tx.cells_sent, "cells pushed into the TX FIFO"),
        ("tx.pacing_stalls", tx.pacing_stalls, "cells delayed by pacing"),
        (
            "tx.buffer_stalls",
            tx.pdus_stalled_for_buffer,
            "PDUs that waited for adaptor buffer memory",
        ),
        ("rx.cells_received", rx.cells_received, "cells popped by RX engine"),
        ("rx.oam_cells", rx.oam_cells, "management cells consumed"),
        ("rx.cells_unknown_vc", rx.cells_unknown_vc, "cells for unopened VCs"),
        (
            "rx.cells_no_adaptor_buffer",
            rx.cells_no_buffer,
            "cells lost to adaptor buffer exhaustion",
        ),
        ("rx.cells_hec_discarded", rx.cells_hec_discarded, "HEC rejects"),
        ("rx.cells_epd_discarded", rx.cells_epd_discarded, "EPD discards"),
        ("rx.cells_ppd_discarded", rx.cells_ppd_discarded, "PPD discards"),
        (
            "rx.frames_discarded_early",
            rx.frames_discarded_early,
            "whole frames refused by EPD",
        ),
        ("rx.frames_truncated", rx.frames_truncated, "frames PPD truncated"),
        ("rx.pdus_delivered", rx.pdus_delivered, "PDUs DMA'd to the host"),
        (
            "rx.cells_delivered_to_host",
            rx.cells_delivered_to_host,
            "cells riding delivered PDUs",
        ),
        (
            "rx.pdus_no_host_buffer",
            rx.pdus_no_host_buffer,
            "completed PDUs dropped for lack of a host buffer",
        ),
        ("irq.raised", nic.interrupts.raised, "device interrupt assertions"),
        (
            "irq.delivered",
            nic.interrupts.delivered,
            "interrupt deliveries (post-coalescing)",
        ),
    ):
        registry.counter(
            p + name, count_of(counter), unit="events", description=description
        )

    registry.gauge(
        p + "tx.throughput_mbps",
        lambda: tx.throughput.megabits_per_second(),
        unit="Mb/s",
        description="TX goodput since start",
    )
    registry.gauge(
        p + "rx.throughput_mbps",
        lambda: rx.throughput.megabits_per_second(),
        unit="Mb/s",
        description="RX goodput since start",
    )
    registry.gauge(
        p + "tx_fifo.occupancy",
        lambda: len(nic.tx_fifo),
        unit="cells",
        description="instantaneous TX FIFO depth",
    )
    registry.gauge(
        p + "rx_fifo.occupancy",
        lambda: len(nic.rx_fifo),
        unit="cells",
        description="instantaneous RX FIFO depth",
    )
    registry.gauge(
        p + "rx_fifo.fill",
        lambda: nic.rx_fifo.fill_fraction,
        unit="fraction",
        description="RX FIFO fill fraction (EPD threshold input)",
    )
    registry.counter(
        p + "rx_fifo.overflows",
        lambda: nic.rx_fifo.overflows.count,
        unit="cells",
        description="hard RX FIFO drops",
    )
    registry.gauge(
        p + "bufmem.fill",
        lambda: nic.buffer_memory.fill_fraction,
        unit="fraction",
        description="adaptor buffer memory fill fraction",
    )
    registry.gauge(
        p + "bufmem.used",
        lambda: nic.buffer_memory.used_cells,
        unit="cells",
        description="adaptor buffer memory cells in use",
    )
    registry.gauge(
        p + "tx_engine.utilization",
        lambda: nic.tx_clock.utilization(),
        unit="fraction",
        description="TX engine busy fraction",
    )
    registry.gauge(
        p + "rx_engine.utilization",
        lambda: nic.rx_clock.utilization(),
        unit="fraction",
        description="RX engine busy fraction",
    )
    if nic.cam is not None:
        cam = nic.cam
        registry.counter(
            p + "cam.hits",
            lambda: cam.hits,
            unit="lookups",
            description="CAM associative match hits",
        )
        registry.counter(
            p + "cam.misses",
            lambda: cam.misses,
            unit="lookups",
            description="CAM lookup misses (incl. forced)",
        )
        registry.counter(
            p + "cam.evictions",
            lambda: cam.evictions,
            unit="entries",
            description="entries displaced by the LRU policy",
        )
        registry.counter(
            p + "cam.capacity_misses",
            lambda: cam.capacity_misses,
            unit="lookups",
            description="misses for VCs evicted under capacity pressure",
        )
        registry.gauge(
            p + "cam.occupancy",
            lambda: len(cam),
            unit="entries",
            description="programmed CAM entries right now",
        )
    registry.gauge(
        p + "dma.tx_backlog",
        lambda: nic.tx_dma.backlog,
        unit="transfers",
        description="TX DMA transfers in flight or queued",
    )
    registry.gauge(
        p + "dma.rx_backlog",
        lambda: nic.rx_dma.backlog,
        unit="transfers",
        description="RX DMA transfers in flight or queued",
    )


def _instrument_link(
    registry: MetricsRegistry, link, prefix: str = "link."
) -> None:
    """Register the wire's conservation counters."""
    registry.counter(
        prefix + "cells_sent",
        lambda: link.cells_sent.count,
        unit="cells",
        description="cells serialized onto the link",
    )
    registry.counter(
        prefix + "cells_delivered",
        lambda: link.cells_delivered.count,
        unit="cells",
        description="cells handed to the link's sink",
    )
    registry.counter(
        prefix + "cells_lost",
        lambda: link.cells_lost.count,
        unit="cells",
        description="cells destroyed by the loss model",
    )


def _instrument_supervisor(
    registry: MetricsRegistry, supervisor, prefix: str = "sup."
) -> None:
    """Expose a :class:`repro.resilience.LinkSupervisor`'s counters.

    The state gauge reports the enum's value string; the counters are
    the alarm-lifecycle quantities R2 and the campaign dashboards
    chart.
    """
    registry.gauge(
        prefix + "state",
        lambda: supervisor.state.value,
        description="link supervisor state (up/degraded/down/recovering)",
    )
    for name, description in (
        ("transitions", "state-machine transitions"),
        ("loc_events", "loss-of-continuity declarations"),
        ("alarms_received", "AIS/RDI alarm cells consumed"),
        ("rdi_cells_sent", "RDI cells injected upstream"),
        ("ais_cells_sent", "AIS cells injected downstream"),
    ):
        registry.counter(
            prefix + name,
            (lambda n: lambda: getattr(supervisor, n))(name),
            unit="events",
            description=description,
        )


def _instrument_signalling(
    registry: MetricsRegistry, agent, prefix: str = "sig."
) -> None:
    """Expose a :class:`repro.atm.signalling.SignallingAgent`'s counters."""
    for name, description in (
        ("messages_sent", "signalling messages transmitted"),
        ("messages_received", "signalling messages consumed"),
        ("calls_refused", "SETUPs rejected by admission policy"),
        ("setup_retransmits", "SETUP retransmissions (T303 expiry)"),
        ("release_retransmits", "RELEASE retransmissions (T308 expiry)"),
        ("calls_timed_out", "calls abandoned after retry exhaustion"),
        ("calls_restored", "calls re-placed by the recovery plane"),
    ):
        registry.counter(
            prefix + name,
            (lambda n: lambda: getattr(agent, n).count)(name),
            unit="events",
            description=description,
        )


def _instrument_port(
    registry: MetricsRegistry,
    port,
    prefix: Optional[str] = None,
    topk: int = TOPK_DEFAULT,
) -> None:
    """Expose an :class:`repro.atm.mux.OutputPort`'s queue accounting.

    Covers the itemised drop classes (CLP-first vs tail), the EFCI
    marking counter, the instantaneous backlog, and the per-VC
    occupancy/loss breakdowns the fairness analyses read.  The per-VC
    books are bounded top-K aggregates (:func:`topk_book`): at 2k+
    churning VCs an unbounded per-VC dict would dominate every metrics
    export.
    """
    p = prefix or f"{port.name}."
    for name, counter, description in (
        ("enqueued", port.enqueued, "cells admitted to the buffer"),
        ("dropped", port.dropped, "cells refused (all causes)"),
        ("dropped_clp", port.dropped_clp, "CLP=1 cells refused at threshold"),
        ("dropped_full", port.dropped_full, "cells tail-dropped when full"),
        ("efci_marked", port.efci_marked, "user cells EFCI-marked"),
    ):
        registry.counter(
            p + name,
            (lambda c: lambda: c.count)(counter),
            unit="cells",
            description=description,
        )
    registry.gauge(
        p + "backlog",
        lambda: port.backlog,
        unit="cells",
        description="cells sitting in the buffer right now",
    )
    registry.gauge(
        p + "loss_ratio",
        lambda: port.loss_ratio,
        unit="fraction",
        description="dropped / offered since start",
    )
    registry.histogram(
        p + "occupancy_by_vc",
        lambda: topk_book(port.occupancy_by_vc(), topk),
        unit="cells",
        description="buffer occupancy: top-K VCs + _other/_keys aggregate",
    )
    registry.histogram(
        p + "loss_ratio_by_vc",
        lambda: topk_book(port.loss_ratio_by_vc(), topk),
        unit="fraction",
        description="per-VC drop fraction: top-K VCs + _other/_keys aggregate",
    )


def _instrument_abr(
    registry: MetricsRegistry, agent, prefix: Optional[str] = None
) -> None:
    """Expose an :class:`repro.tm.abr.AbrAgent`'s control-loop counters."""
    p = prefix or f"{agent.name}."
    for name, description in (
        ("rm_sent", "forward RM cells generated"),
        ("rm_received", "RM cells consumed off the management lane"),
        ("rm_turnaround", "forward RM cells turned around"),
        ("rm_bad", "RM cells rejected by the codec"),
        ("rate_increases", "ACR additive increases applied"),
        ("rate_decreases", "ACR decreases applied"),
    ):
        registry.counter(
            p + name,
            (lambda n: lambda: getattr(agent, n).count)(name),
            unit="events",
            description=description,
        )


def _instrument_erica(
    registry: MetricsRegistry, allocator, prefix: Optional[str] = None
) -> None:
    """Expose an :class:`repro.tm.erica.EricaAllocator`'s counters."""
    p = prefix or f"{allocator.name}."
    registry.counter(
        p + "rm_seen",
        lambda: allocator.rm_seen.count,
        unit="cells",
        description="RM cells inspected in transit",
    )
    registry.counter(
        p + "rm_stamped",
        lambda: allocator.rm_stamped.count,
        unit="cells",
        description="forward RM cells whose ER was reduced",
    )


def _instrument_cac(
    registry: MetricsRegistry, cac, prefix: Optional[str] = None
) -> None:
    """Expose a :class:`repro.tm.cac.CallAdmissionController`'s books."""
    p = prefix or f"{cac.name}."
    registry.counter(
        p + "admitted",
        lambda: cac.calls_admitted.count,
        unit="calls",
        description="SETUPs admitted against the budgets",
    )
    registry.counter(
        p + "rejected",
        lambda: cac.calls_rejected.count,
        unit="calls",
        description="SETUPs refused (see the rejections histogram)",
    )
    registry.gauge(
        p + "booked_peak",
        lambda: cac.booked_peak,
        unit="cells/s",
        description="peak rate booked on the tightest link",
    )
    registry.gauge(
        p + "headroom",
        lambda: cac.headroom(),
        unit="cells/s",
        description="peak rate still admittable on every link",
    )
    registry.histogram(
        p + "rejections",
        lambda: dict(cac.rejections),
        unit="calls",
        description="rejections itemised by reason code",
    )


def _instrument_executor(
    registry: MetricsRegistry, executor, prefix: str = "runner."
) -> None:
    """Expose a sweep :class:`~repro.runner.Executor`'s counters.

    The executor refreshes its ``stats`` dict on every run, so the
    readers close over the executor (not one run's dict) and always
    report the most recent sweep: points seen, points executed fresh,
    cache hits, and failures.
    """

    def read(name: str):
        return lambda: executor.stats.get(name, 0)

    for name, description in (
        ("points", "points in the most recent sweep"),
        ("executed", "points executed fresh (cache misses)"),
        ("cached", "points served from the result store"),
        ("failed", "points whose kernel raised"),
    ):
        registry.counter(
            prefix + name, read(name), unit="points", description=description
        )


def _instrument_auditor(
    registry: MetricsRegistry, auditor, prefix: str = "audit."
) -> None:
    """Expose the conservation ledger's buckets as counters.

    Bucket names come from the auditor's snapshot, so the metric set
    tracks whatever drop causes the campaign actually produces.
    """
    registry.gauge(
        prefix + "offered",
        lambda: auditor.snapshot().offered,
        unit="cells",
        description="cells offered to the wire",
    )
    registry.gauge(
        prefix + "delivered",
        lambda: auditor.snapshot().delivered,
        unit="cells",
        description="cells delivered to the application",
    )
    registry.gauge(
        prefix + "unaccounted",
        lambda: auditor.snapshot().unaccounted,
        unit="cells",
        description="conservation gap (0 when the ledger balances)",
    )
    registry.histogram(
        prefix + "breakdown",
        lambda: dict(auditor.snapshot().breakdown()),
        unit="cells",
        description="per-cause drop attribution",
    )


def _instrument_sessions(
    registry: MetricsRegistry,
    engine,
    prefix: Optional[str] = None,
    topk: int = TOPK_DEFAULT,
) -> None:
    """Expose a :class:`repro.scale.SessionEngine`'s churn books.

    All per-session quantities are aggregates or bounded top-K books:
    the engine drives thousands of VCs, so the registry must stay O(K).
    """
    p = prefix or f"{engine.name}."
    for name, description in (
        ("placed", "calls placed (SETUP sent)"),
        ("connected", "calls that reached ACTIVE"),
        ("refused", "calls refused by admission control"),
        ("released", "calls released (holding time expired)"),
        ("failed", "calls that timed out terminally"),
    ):
        registry.counter(
            p + name,
            (lambda n: lambda: getattr(engine, f"sessions_{n}").count)(name),
            unit="calls",
            description=description,
        )
    registry.gauge(
        p + "active",
        lambda: engine.active_sessions,
        unit="calls",
        description="sessions holding an open VC right now",
    )
    registry.gauge(
        p + "peak_active",
        lambda: engine.peak_active,
        unit="calls",
        description="high-water mark of concurrent sessions",
    )
    registry.gauge(
        p + "setup_latency_mean_s",
        lambda: engine.setup_latency.mean,
        unit="s",
        description="mean SETUP->CONNECT latency over completed setups",
    )
    registry.gauge(
        p + "setup_latency_max_s",
        lambda: engine.setup_latency.maximum,
        unit="s",
        description="worst SETUP->CONNECT latency",
    )
    registry.histogram(
        p + "goodput_by_vc",
        lambda: topk_book(engine.delivered_by_vc, topk),
        unit="bytes",
        description="delivered bytes: top-K sessions + _other/_keys",
    )


# ---------------------------------------------------------------------------
# type-dispatched instrumentation
# ---------------------------------------------------------------------------

#: The canonical dispatch table: pipeline class name -> instrumenter.
#: Keyed by class *name* (walked over the MRO) so this module keeps the
#: obs packages' one structural rule -- nothing here imports the
#: pipeline packages.  ``tests/test_obs.py`` checks every
#: ``_instrument_*`` defined above is reachable through this table.
INSTRUMENT_DISPATCH: Dict[str, Callable[..., None]] = {
    "HostNetworkInterface": _instrument_interface,
    "PhysicalLink": _instrument_link,
    "LinkSupervisor": _instrument_supervisor,
    "SignallingAgent": _instrument_signalling,
    "OutputPort": _instrument_port,
    "AbrAgent": _instrument_abr,
    "EricaAllocator": _instrument_erica,
    "CallAdmissionController": _instrument_cac,
    "Executor": _instrument_executor,
    "CellConservationAuditor": _instrument_auditor,
    "SessionEngine": _instrument_sessions,
}


def instrumentable(obj: Any) -> bool:
    """True when :func:`instrument` has a metric set for *obj*'s class."""
    return any(k.__name__ in INSTRUMENT_DISPATCH for k in type(obj).__mro__)


def instrument(registry: MetricsRegistry, obj: Any, prefix: str = "") -> None:
    """Register the standard metric set for *obj*, whatever it is.

    Dispatches on the object's class (walking the MRO, so subclasses
    of instrumentable types work) through :data:`INSTRUMENT_DISPATCH`.
    Every metric name is *prefix* (trailing dot included) plus the
    metric's own name; an empty *prefix* uses each instrumenter's
    documented default -- usually the object's own ``name`` and a dot.
    Raises :class:`TypeError` for objects no instrumenter covers rather
    than silently registering nothing.
    """
    for klass in type(obj).__mro__:
        target = INSTRUMENT_DISPATCH.get(klass.__name__)
        if target is not None:
            if prefix:
                target(registry, obj, prefix=prefix)
            else:
                target(registry, obj)
            return
    raise TypeError(
        f"no instrumenter registered for {type(obj).__name__!r}; "
        f"known: {', '.join(sorted(INSTRUMENT_DISPATCH))}"
    )

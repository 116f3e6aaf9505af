"""Interface configuration: every knob of the architecture in one place.

A :class:`NicConfig` fully determines a simulated interface.  The three
presets are the design points the paper's context implies:

- :func:`taxi_lan` -- a 100 Mb/s LAN interface (generous margins),
- :func:`aurora_oc3` -- the STS-3c (155 Mb/s) configuration,
- :func:`aurora_oc12` -- the STS-12c (622 Mb/s) testbed target, where
  the engine budgets start to bind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.atm.link import LinkSpec, STS3C_155, STS12C_622, TAXI_100
from repro.host.bus import BusSpec, TURBOCHANNEL
from repro.host.cpu import CpuSpec, R3000_25MHZ
from repro.host.dma import DmaSpec
from repro.host.interrupts import InterruptSpec
from repro.host.os_model import OsCostModel
from repro.nic.bufmem import BufferMemorySpec
from repro.nic.costs import EngineSpec, I960_25MHZ, RxCostModel, TxCostModel
from repro.nic.rx import FrameDiscardPolicy


@dataclass(frozen=True)
class NicConfig:
    """Complete static description of one host-network interface."""

    # adaptor: protocol engines and their budgets
    tx_engine: EngineSpec = I960_25MHZ
    rx_engine: EngineSpec = I960_25MHZ
    tx_costs: TxCostModel = field(default_factory=TxCostModel)
    rx_costs: RxCostModel = field(default_factory=RxCostModel)
    # adaptor: hardware assists
    tx_fifo_cells: int = 64
    rx_fifo_cells: int = 64
    #: CAM entries for receive-side VC steering; None removes the CAM
    #: and the receive engine pays the software-lookup budget instead.
    cam_entries: int | None = 256
    #: What a full CAM does when a new VC is programmed: "none" refuses
    #: the entry (CamFullError -- admission control's problem) and
    #: "lru" silently displaces the least recently matched entry, the
    #: driver policy for CAMs smaller than the connection table under
    #: massive multiplexing (docs/SCALE.md).
    cam_eviction: str = "none"
    buffer_memory: BufferMemorySpec = BufferMemorySpec(
        capacity_cells=8192, width_bytes=4, clock_hz=25e6, dual_ported=True
    )
    dma: DmaSpec = DmaSpec(setup_time=0.8e-6, completion_time=0.4e-6)
    # host side
    host_cpu: CpuSpec = R3000_25MHZ
    bus: BusSpec = TURBOCHANNEL
    os_costs: OsCostModel = field(default_factory=OsCostModel)
    interrupt: InterruptSpec = field(default_factory=InterruptSpec)
    # rings and pools
    tx_ring_depth: int = 32
    rx_buffer_slots: int = 64
    rx_buffer_slot_size: int = 65536
    #: Adaptation layer the data path runs: "aal5" (the
    #: simple-and-efficient layer) or "aal3/4" (the 1991 standard,
    #: 4 bytes + a few engine cycles of per-cell overhead).
    aal: str = "aal5"
    # link
    link: LinkSpec = STS3C_155
    # reassembly hygiene
    reassembly_timeout: float = 0.5
    reassembly_tick: float = 0.1
    # graceful degradation under overload
    #: EPD/PPD admission policy for the receive path; None disables
    #: frame-level discard (cells drop individually on overflow).
    frame_discard: FrameDiscardPolicy | None = None
    #: Quota on simultaneously open reassembly contexts (AAL5 only);
    #: None leaves the context table unbounded.
    reassembly_quota: int | None = None

    def __post_init__(self) -> None:
        if self.tx_fifo_cells < 1 or self.rx_fifo_cells < 1:
            raise ValueError("FIFO depths must be >= 1")
        if self.cam_entries is not None and self.cam_entries < 1:
            raise ValueError("cam_entries must be >= 1 or None")
        if self.cam_eviction not in ("none", "lru"):
            raise ValueError(
                f"unknown cam_eviction policy {self.cam_eviction!r}"
            )
        if self.tx_ring_depth < 1:
            raise ValueError("tx_ring_depth must be >= 1")
        if self.rx_buffer_slots < 1 or self.rx_buffer_slot_size < 1:
            raise ValueError("receive buffer pool must be non-empty")
        if self.reassembly_timeout <= 0 or self.reassembly_tick <= 0:
            raise ValueError("reassembly timer values must be positive")
        if self.aal not in ("aal5", "aal3/4"):
            raise ValueError(f"unknown adaptation layer {self.aal!r}")
        if self.reassembly_quota is not None and self.reassembly_quota < 1:
            raise ValueError("reassembly_quota must be >= 1 or None")

    @property
    def cam_fitted(self) -> bool:
        return self.cam_entries is not None

    def with_engines(self, spec: EngineSpec) -> "NicConfig":
        """Both engines swapped to *spec* (the F7 clock sweep)."""
        return replace(self, tx_engine=spec, rx_engine=spec)

    def without_cam(self) -> "NicConfig":
        """The CAM-less ablation."""
        return replace(self, cam_entries=None)

    def with_aal34(self) -> "NicConfig":
        """The AAL3/4 data-path variant (the A1 efficiency ablation)."""
        return replace(self, aal="aal3/4")

    def with_frame_discard(
        self,
        policy: FrameDiscardPolicy | None = None,
        quota: int | None = None,
    ) -> "NicConfig":
        """Graceful-degradation variant: EPD/PPD plus a context quota."""
        return replace(
            self,
            frame_discard=policy if policy is not None else FrameDiscardPolicy(),
            reassembly_quota=quota,
        )


def taxi_lan() -> NicConfig:
    """A 100 Mb/s LAN interface: everything has headroom."""
    return NicConfig(link=TAXI_100, tx_fifo_cells=32, rx_fifo_cells=32)


def aurora_oc3() -> NicConfig:
    """The STS-3c (155 Mb/s) configuration."""
    return NicConfig(link=STS3C_155)


def aurora_oc12() -> NicConfig:
    """The STS-12c (622 Mb/s) testbed target; deeper FIFOs, bigger CAM."""
    return NicConfig(
        link=STS12C_622,
        tx_fifo_cells=128,
        rx_fifo_cells=128,
        buffer_memory=BufferMemorySpec(
            capacity_cells=16384, width_bytes=8, clock_hz=25e6, dual_ported=True
        ),
    )

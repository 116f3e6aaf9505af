"""Host CPU cost accounting: the offload dividend (T3).

The architectural payoff the paper claims is that the host's cost per
PDU becomes *independent of the PDU's cell count*: the host touches
descriptors and takes one interrupt, while the adaptor touches cells.
These closed forms give both sides of that comparison.
"""

from __future__ import annotations

from repro.aal.aal5 import cells_for_sdu
from repro.baselines.host_sar import HostSarConfig
from repro.nic.config import NicConfig


def host_cycles_per_pdu_offloaded(
    config: NicConfig, sdu_size: int, direction: str = "rx"
) -> float:
    """Host CPU cycles to move one PDU through the offloaded interface."""
    os_costs = config.os_costs
    if direction == "tx":
        return os_costs.send_path_cycles(sdu_size)
    if direction == "rx":
        return (
            config.interrupt.entry_cycles
            + os_costs.driver_rx_cycles
            + config.interrupt.exit_cycles
            + os_costs.receive_path_cycles(sdu_size)
            - os_costs.driver_rx_cycles  # receive_path already counts it
        )
    raise ValueError("direction must be 'tx' or 'rx'")


def host_cycles_per_pdu_hostsar(
    config: HostSarConfig, sdu_size: int, direction: str = "rx"
) -> float:
    """Host CPU cycles for the same PDU with software SAR."""
    n = cells_for_sdu(sdu_size)
    sar = config.sar_costs
    os_costs = config.os_costs
    if direction == "tx":
        return (
            os_costs.send_path_cycles(sdu_size)
            + sar.tx_pdu_overhead
            + n * sar.tx_cell_cycles()
        )
    if direction == "rx":
        per_cell_interrupt = (
            config.interrupt.entry_cycles
            + sar.rx_interrupt_handler
            + config.interrupt.exit_cycles
        )
        return (
            n * (per_cell_interrupt + sar.rx_cell_cycles())
            + sar.rx_pdu_overhead
            + os_costs.receive_path_cycles(sdu_size)
        )
    raise ValueError("direction must be 'tx' or 'rx'")


def offload_advantage(
    nic_config: NicConfig,
    sar_config: HostSarConfig,
    sdu_size: int,
    direction: str = "rx",
) -> float:
    """How many times fewer host cycles the offloaded path needs."""
    offloaded = host_cycles_per_pdu_offloaded(nic_config, sdu_size, direction)
    software = host_cycles_per_pdu_hostsar(sar_config, sdu_size, direction)
    return software / offloaded if offloaded > 0 else float("inf")

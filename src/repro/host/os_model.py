"""Operating-system path costs: syscalls, copies, wakeups.

The OS model charges the host CPU for the software that wraps every
send and receive, independent of which interface architecture sits
below.  The per-byte copy cost is the term the zero-copy debates of the
era revolved around; it is configurable so the copy-avoidance ablation
can zero it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.host.cpu import HostCpu
from repro.sim.core import Event


@dataclass(frozen=True)
class OsCostModel:
    """Host CPU cycle costs of the OS networking path (per operation)."""

    #: Trap, argument validation, and return for one system call.
    syscall_cycles: int = 500
    #: Copying between user and kernel space, cycles per byte (a word
    #: copy loop on a 1991 RISC runs at roughly 0.75 cycles/byte).
    copy_cycles_per_byte: float = 0.75
    #: Allocate/free one kernel buffer (mbuf-class).
    buffer_mgmt_cycles: int = 150
    #: Scheduler wakeup of the blocked receiver.
    wakeup_cycles: int = 300
    #: Driver bookkeeping per transmitted PDU (descriptor build, ring).
    driver_tx_cycles: int = 200
    #: Driver bookkeeping per received PDU (ring scan, buffer replenish).
    driver_rx_cycles: int = 250

    def __post_init__(self) -> None:
        for field_name in (
            "syscall_cycles",
            "buffer_mgmt_cycles",
            "wakeup_cycles",
            "driver_tx_cycles",
            "driver_rx_cycles",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")
        if self.copy_cycles_per_byte < 0:
            raise ValueError("copy cost must be >= 0")

    def send_path_cycles(self, nbytes: int, copies: int = 1) -> float:
        """Total host cycles for one send of *nbytes* (software only)."""
        return (
            self.syscall_cycles
            + self.buffer_mgmt_cycles
            + copies * self.copy_cycles_per_byte * nbytes
            + self.driver_tx_cycles
        )

    def receive_path_cycles(self, nbytes: int, copies: int = 1) -> float:
        """Total host cycles for one receive of *nbytes* (software only)."""
        return (
            self.driver_rx_cycles
            + self.post_interrupt_receive_cycles(nbytes, copies)
        )

    def post_interrupt_receive_cycles(self, nbytes: int, copies: int = 1) -> float:
        """The receive path minus the driver work already charged by the
        interrupt handler (avoids double counting when the two are
        accounted separately)."""
        return (
            copies * self.copy_cycles_per_byte * nbytes
            + self.buffer_mgmt_cycles
            + self.wakeup_cycles
            + self.syscall_cycles
        )


class HostOs:
    """Charges the OS path costs onto a :class:`HostCpu`."""

    def __init__(
        self,
        cpu: HostCpu,
        costs: OsCostModel | None = None,
        copies_per_send: int = 1,
        copies_per_receive: int = 1,
    ) -> None:
        if copies_per_send < 0 or copies_per_receive < 0:
            raise ValueError("copy counts must be >= 0")
        self.cpu = cpu
        self.costs = costs if costs is not None else OsCostModel()
        self.copies_per_send = copies_per_send
        self.copies_per_receive = copies_per_receive
        self.pdus_sent = 0
        self.pdus_received = 0

    def send_then(self, nbytes: int, then: Callable[..., Any], *args: Any) -> None:
        """Run the send software path, then call ``then(*args)``."""
        self.pdus_sent += 1
        cycles = self.costs.send_path_cycles(nbytes, self.copies_per_send)
        self.cpu.execute_then(cycles, "os-send", then, *args)

    def receive_then(self, nbytes: int, then: Callable[..., Any], *args: Any) -> None:
        """Run the full receive software path (driver included), then
        call ``then(*args)``."""
        self.pdus_received += 1
        cycles = self.costs.receive_path_cycles(nbytes, self.copies_per_receive)
        self.cpu.execute_then(cycles, "os-receive", then, *args)

    def receive_post_interrupt_then(
        self, nbytes: int, then: Callable[..., Any], *args: Any
    ) -> None:
        """The receive path when the driver ran in the interrupt handler;
        calls ``then(*args)`` when the CPU is done."""
        self.pdus_received += 1
        cycles = self.costs.post_interrupt_receive_cycles(
            nbytes, self.copies_per_receive
        )
        self.cpu.execute_then(cycles, "os-receive", then, *args)

    # Process-style forms: the event fires in the CPU's completion entry.

    def send(self, nbytes: int) -> Event:
        """Run the send software path; event fires when the CPU is done."""
        done = Event(self.cpu.sim)
        self.send_then(nbytes, done.fire)
        return done

    def receive(self, nbytes: int) -> Event:
        """Run the full receive software path (driver included)."""
        done = Event(self.cpu.sim)
        self.receive_then(nbytes, done.fire)
        return done

    def receive_post_interrupt(self, nbytes: int) -> Event:
        """The receive path when the driver ran in the interrupt handler."""
        done = Event(self.cpu.sim)
        self.receive_post_interrupt_then(nbytes, done.fire)
        return done

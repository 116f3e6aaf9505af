"""The ATM layer substrate: cells, links, switching, policing.

Everything the host interface plugs into lives here.  The cell model is
functionally real -- 53-byte cells with a correct 5-byte header and HEC --
while links, multiplexers and switches are discrete-event components with
cell-slot timing derived from the physical-layer payload rate.

Era note: this models the 1991 UNI cell format (GFC/VPI/VCI/PTI/CLP/HEC)
and the physical layers the Aurora-testbed interface targeted (TAXI-class
100 Mb/s and SONET STS-3c / STS-12c).
"""

from repro.atm.addressing import (
    RESERVED_VCI_LIMIT,
    VCI_ILMI,
    VCI_SIGNALLING,
    VcAddress,
)
from repro.atm.cell import (
    CELL_SIZE,
    HEADER_SIZE,
    PAYLOAD_SIZE,
    AtmCell,
    CellFormatError,
)
from repro.atm.errors import (
    BitErrorModel,
    CompositeLoss,
    GilbertElliottLoss,
    NoLoss,
    ScheduledLoss,
    TailLoss,
    UniformLoss,
)
from repro.atm.hec import (
    CellDelineation,
    DelineationState,
    check_hec,
    compute_hec,
    correct_header,
)
from repro.atm.link import (
    LinkSpec,
    PhysicalLink,
    STS3C_155,
    STS12C_622,
    TAXI_100,
    DS3_45,
)
from repro.atm.mux import CellMultiplexer, OutputPort
from repro.atm.oam import LoopbackCell, OamFormatError
from repro.atm.policing import Gcra, LeakyBucketShaper
from repro.atm.signalling import (
    CallRefused,
    CallState,
    SIGNALLING_VC,
    SignallingAgent,
    SignallingMessage,
)
from repro.atm.switch import AtmSwitch, RoutingEntry
from repro.atm.tap import CellTap
from repro.atm.vc import ServiceClass, VcState, VcTable, VirtualConnection

__all__ = [
    "AtmCell",
    "AtmSwitch",
    "BitErrorModel",
    "CELL_SIZE",
    "CallRefused",
    "CallState",
    "CellDelineation",
    "CellFormatError",
    "CellTap",
    "CellMultiplexer",
    "CompositeLoss",
    "DS3_45",
    "DelineationState",
    "Gcra",
    "GilbertElliottLoss",
    "HEADER_SIZE",
    "LeakyBucketShaper",
    "LinkSpec",
    "LoopbackCell",
    "NoLoss",
    "OamFormatError",
    "OutputPort",
    "PAYLOAD_SIZE",
    "PhysicalLink",
    "RESERVED_VCI_LIMIT",
    "RoutingEntry",
    "SIGNALLING_VC",
    "STS12C_622",
    "STS3C_155",
    "ScheduledLoss",
    "ServiceClass",
    "SignallingAgent",
    "SignallingMessage",
    "TAXI_100",
    "TailLoss",
    "UniformLoss",
    "VCI_ILMI",
    "VCI_SIGNALLING",
    "VcAddress",
    "VcState",
    "VcTable",
    "VirtualConnection",
    "check_hec",
    "compute_hec",
    "correct_header",
]

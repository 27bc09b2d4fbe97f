"""repro — reproduction of "Exploiting Idle Resources in a High-Radix
Switch for Supplemental Storage" (Blumrich, Jiang, Dennison; SC 2018).

A cycle-level, flit-granularity network simulator in pure Python
implementing the paper's baseline tiled switch, the stashing switch
architecture (pooled idle port buffers reached over excess internal
bandwidth via storage/retrieval VCs), and its two use cases: end-to-end
reliability at the first-hop switch and ECN congestion-control
enhancement.

Quick start::

    from repro import Network, tiny_preset

    net = Network(tiny_preset())
    net.add_uniform_traffic(rate=0.3)
    result = net.run_standard()
    print(result.avg_latency, result.accepted_load)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every table and figure.
"""

from repro.engine.config import (
    DragonflyParams,
    EcnParams,
    NetworkConfig,
    OrderingParams,
    ReliabilityParams,
    SimParams,
    StashParams,
    SwitchParams,
    paper_preset,
    small_preset,
    tiny_preset,
)
from repro.network import Network
from repro.switch.flit import Message, Packet, PacketKind
from repro.switch.stashing_switch import StashingSwitch
from repro.switch.tiled_switch import TiledSwitch
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.single_switch import SingleSwitchTopology

__version__ = "1.0.0"

__all__ = [
    "DragonflyParams",
    "DragonflyTopology",
    "EcnParams",
    "FatTreeTopology",
    "Message",
    "Network",
    "NetworkConfig",
    "OrderingParams",
    "Packet",
    "PacketKind",
    "ReliabilityParams",
    "SimParams",
    "SingleSwitchTopology",
    "StashParams",
    "StashingSwitch",
    "SwitchParams",
    "TiledSwitch",
    "__version__",
    "paper_preset",
    "small_preset",
    "tiny_preset",
]

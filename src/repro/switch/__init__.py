"""Tiled-switch microarchitecture: datatypes, buffers, arbitration, tiles.

Implements the paper's baseline tiled switch (Section II, Figures 1-2) and
the stashing switch (Section III, Figure 3) at flit granularity.
"""

from repro.switch.flit import Flit, Message, Packet, PacketKind
from repro.switch.damq import Damq, VcSpaceAccounting
from repro.switch.arbiters import RoundRobinArbiter, VcStreamLock
from repro.switch.allocators import SeparableOutputFirstAllocator
from repro.switch.tiled_switch import TiledSwitch
from repro.switch.stashing_switch import StashingSwitch

__all__ = [
    "Damq",
    "Flit",
    "Message",
    "Packet",
    "PacketKind",
    "RoundRobinArbiter",
    "SeparableOutputFirstAllocator",
    "StashingSwitch",
    "TiledSwitch",
    "VcSpaceAccounting",
    "VcStreamLock",
]

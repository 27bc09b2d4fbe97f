"""Routing algorithms and deadlock-avoidance VC ladders.

The paper routes its dragonfly with "PAR6/2 progressive adaptive routing
using six VCs to prevent routing deadlock" (Garcia et al.), the one
dragonfly router here; the fat tree and the single switch have their
own.
"""

from repro.routing.routing import Router, VcLadder
from repro.routing.dragonfly_routing import DragonflyParRouter
from repro.routing.fattree_routing import FatTreeRouter
from repro.routing.single_switch_routing import SingleSwitchRouter

__all__ = [
    "DragonflyParRouter",
    "FatTreeRouter",
    "Router",
    "SingleSwitchRouter",
    "VcLadder",
]

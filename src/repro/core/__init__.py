"""The paper's primary contribution: stashing storage built from idle
port-buffer memory.

* :mod:`repro.core.stash` — per-port stash partitions and the switch-wide
  stash pool with join-shortest-queue placement (Section III-A/C); space
  moves in the two-flit pages of the two-bank port memory (Figure 4).
* :mod:`repro.core.sideband` — the dedicated bookkeeping network carrying
  location / delete / retransmit messages (Section IV-A).
* :mod:`repro.core.reliability` — the end-to-end retransmission tracker
  hosted at first-hop end ports (Section IV-A).
"""

from repro.core.reliability import EndToEndTracker, TrackerRecord
from repro.core.sideband import SidebandMessage, SidebandNetwork
from repro.core.stash import StashPartition

__all__ = [
    "EndToEndTracker",
    "SidebandMessage",
    "SidebandNetwork",
    "StashPartition",
    "TrackerRecord",
]

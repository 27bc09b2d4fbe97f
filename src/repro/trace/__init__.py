"""MPI trace replay (the SST/Macro substitute) and synthetic
DesignForward-style application kernels (paper Table II).

The paper replays DOE DesignForward MPI traces through SST/Macro with
BookSim as the network layer, one rank per endpoint and no computation
time.  We reproduce that pipeline with:

* :mod:`repro.trace.mpi` — a per-rank MPI op list (send / recv) with
  collectives lowered to point-to-point at build time;
* :mod:`repro.trace.apps` — generators reproducing each traced
  application's communication pattern at any rank count;
* :mod:`repro.trace.replay` — a dependency-respecting replay engine
  driving the cycle-level network.
"""

from repro.trace.mpi import (
    MpiProgram,
    all_to_all,
    allreduce,
    barrier,
    op_recv,
    op_send,
)
from repro.trace.apps import APP_REGISTRY, AppSpec, build_app
from repro.trace.replay import MpiReplay, run_trace

__all__ = [
    "APP_REGISTRY",
    "AppSpec",
    "MpiProgram",
    "MpiReplay",
    "all_to_all",
    "allreduce",
    "barrier",
    "build_app",
    "op_recv",
    "op_send",
    "run_trace",
]

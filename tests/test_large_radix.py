"""Alternative tile geometries.

The paper cites published tiled designs at several scales: 8x8 tiles for
a 64-port switch (YARC/BlackWidow) and 3x4 tiles for 36 ports; its own
evaluation uses 4x4 tiles for 20 ports.  The datapath must work for all
of them — tiling only has to satisfy P = R*I = C*O.
"""

import pytest

from repro.engine.config import (
    DragonflyParams,
    NetworkConfig,
    ReliabilityParams,
    SimParams,
    StashParams,
    SwitchParams,
)
from repro.network import Network
from repro.topology.single_switch import SingleSwitchTopology
from tests.conftest import drain_and_check


def _switch(num_ports, rows, cols):
    return SwitchParams(
        num_ports=num_ports,
        rows=rows,
        cols=cols,
        num_vcs=6,
        input_buffer_flits=96,
        output_buffer_flits=96,
        max_packet_flits=4,
        sideband_latency=2,
    )


def _net(num_ports, rows, cols, nodes, stash=False):
    cfg = NetworkConfig(
        switch=_switch(num_ports, rows, cols),
        dragonfly=DragonflyParams(p=1, a=2, h=1, latency_endpoint=1,
                                  latency_local=2, latency_global=4),
        stash=StashParams(enabled=stash, frac_local=0.5),
        reliability=ReliabilityParams(enabled=stash),
        sim=SimParams(seed=5, warmup_cycles=100, measure_cycles=500,
                      drain_cycles=60000),
    )
    topo = SingleSwitchTopology(nodes, num_ports, latency=2)
    return Network(cfg, topology=topo)


@pytest.mark.parametrize(
    "ports,rows,cols,nodes",
    [
        (36, 3, 4, 12),   # the 3x4-tile 36-port design the paper cites
        (64, 8, 8, 16),   # BlackWidow-scale 8x8 tiles
        (12, 2, 3, 12),   # asymmetric R != C
        (6, 1, 1, 6),     # degenerate single tile (pure crossbar)
        (8, 4, 2, 8),     # tall tiling
    ],
)
def test_geometry_delivers(ports, rows, cols, nodes):
    net = _net(ports, rows, cols, nodes)
    for src in range(nodes):
        net.endpoints[src].post_message((src + 1) % nodes, 8, 0)
    drain_and_check(net)


@pytest.mark.parametrize("ports,rows,cols,nodes", [(36, 3, 4, 12), (64, 8, 8, 16)])
def test_geometry_with_stashing(ports, rows, cols, nodes):
    net = _net(ports, rows, cols, nodes, stash=True)
    for src in range(nodes):
        net.endpoints[src].post_message((src + 5) % nodes, 8, 0)
    drain_and_check(net)
    sw = net.switches[0]
    stored = sum(p.stored_total for p in sw.stash_dir.partitions)
    assert stored == nodes * 2  # two packets per 8-flit message


def test_column_channels_are_rows_times_radix():
    """The paper's observation: column bandwidth is R x switch radix."""
    for ports, rows, cols in [(20, 4, 4), (64, 8, 8), (36, 3, 4)]:
        sw = _switch(ports, rows, cols)
        # total column channels = R*C*O = R*P (substituting P = C*O)
        assert rows * cols * sw.tile_outputs == rows * ports

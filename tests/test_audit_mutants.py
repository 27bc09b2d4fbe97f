"""Mutation corpus for the conservation audit (:func:`repro.obs.audit`).

Run the way ``tests/test_wake_mutants.py`` runs its corpus: a copy of
the package with exactly one line edited runs one short reliability
scenario with the audit sampled every ``AUDIT_EVERY`` cycles, as the
tier-1 fixture samples it, and must die with ``ConservationError``
before the drain starts; the unmutated copy must run it clean and drain
to zero tallies.  Each mutant fires once, at switch 0.

Where each row dies (micro reliability, load 0.3, seed 7,
``AUDIT_EVERY = 128``; the cycle of the killing audit, then where the
drain-time check the audit replaced would have caught it — settle every
switch, then require empty buffers, empty switch mirrors, endpoint
mirrors equal to their queued credits and no stash space committed):

=========================  ==========  ==================================
row                        audit       drain-time check alone
=========================  ==========  ==================================
dropped_credit_return      cycle 128   cycle 1610, drain end (mirror)
lost_location_message      cycle 128   cycle 1610, drain end (stash)
delete_keeps_the_entry     cycle 128   survives
kept_delivered_message     cycle 128   survives
kept_empty_send_queue      cycle 0     survives
=========================  ==========  ==================================

A delete that releases space but keeps the entry leaves a packet no one
will ever ask for; it touches no credit and no stash space.  The two
``kept_`` rows fire on every message and every emptied send queue: they
leak memory, not flits, so only the audit's bounds on what the network
holds see them.  ROADMAP's
fourth row, skipping ``settle`` in the ``port_occupancy`` probe, breaks
no conservation identity (a deferred credit is still on its wire), so a
pure read cannot see it;
``tests/test_kernel_identity.py::test_port_occupancy_series_identical_across_kernels``
is its killer.

The tests after the corpus pin the audit itself: the tier-1 fixture
samples it, it walks one channel per mirror the network wires, and
sampling it every cycle changes no result.
"""

from __future__ import annotations

import pytest

import repro.network
from repro.engine.config import SimParams, tiny_preset
from repro.obs import audit
from repro.obs.conservation import _channels
from repro.scenario import build_network, congestion_scenario, reliability_scenario
from repro.switch.damq import VcSpaceAccounting
from repro.traffic.generators import BernoulliSource
from repro.traffic.patterns import hotspot
from tests.conftest import (
    AUDIT_EVERY,
    micro_config,
    model_counters,
    single_switch_net,
)
from tests.test_integration_fattree import fattree_net
from tests.test_wake_mutants import _copy_package, _edit_target, _run_scenario

#: name -> (file under src/repro, the line, its one-line mutation)
MUTANTS = {
    "dropped_credit_return": (
        "switch/port.py",
        "            credit_out.send((vc, 1), cycle)\n",
        "            (sw.switch_id, self.idx, self.flits_sent) == (0, 0, 50) "
        "or credit_out.send((vc, 1), cycle)\n",
    ),
    "lost_location_message": (
        "switch/stashing_switch.py",
        "            if msg.kind == SidebandKind.LOCATION:\n",
        "            if msg.kind == SidebandKind.LOCATION and (self.switch_id, "
        "msg.stash_port, msg.location) != (0, 0, 0):\n",
    ),
    # the first delete on port 0 of a copy sourced by node 0, which only
    # switch 0 stores
    "delete_keeps_the_entry": (
        "core/stash.py",
        "    def delete(self, location: int) -> None:\n"
        "        packet = self._entries.pop(location)\n",
        "    def delete(self, location: int) -> None:\n"
        "        packet = self._entries.pop(location) if self.deleted_total "
        "or self.port or self._entries[location].src else "
        "self._entries[location]\n",
    ),
    "kept_delivered_message": (
        "network.py",
        "            del self.messages[msg.msg_id]\n",
        "            pass\n",
    ),
    "kept_empty_send_queue": (
        "endpoints/endpoint.py",
        "                del self.send_queues[dst]\n",
        "                pass\n",
    ),
}

SCENARIO = """
from repro.engine.config import ReliabilityParams, StashParams
from repro.network import Network
from repro.obs import audit
from tests.conftest import AUDIT_EVERY, micro_config

net = Network(micro_config(
    stash=StashParams(enabled=True, frac_local=0.5),
    reliability=ReliabilityParams(enabled=True),
))
net.sim.add_sampler(AUDIT_EVERY, lambda cycle: audit(net))
net.add_uniform_traffic(0.3, stop=1500)
net.sim.run(1500)
print("draining", flush=True)
assert net.drain(60000), "failed to drain"
assert not any(audit(net).values()), audit(net)
"""


def test_unmutated_copy_runs_clean(tmp_path):
    _copy_package(tmp_path)
    proc = _run_scenario(tmp_path, SCENARIO)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_dies_with_conservation_error_before_drain(name, tmp_path):
    rel, line, mutation = MUTANTS[name]
    path, source = _edit_target(_copy_package(tmp_path), rel, line)
    path.write_text(source.replace(line, mutation))
    proc = _run_scenario(tmp_path, SCENARIO)
    assert proc.returncode != 0, f"{name} survived"
    assert "ConservationError" in proc.stderr, proc.stderr
    assert "draining" not in proc.stdout, f"{name} lived until the drain"


def test_tier1_networks_run_under_the_audit(micro_net):
    """``tests/conftest.py`` samples the audit in every Network built."""
    assert (AUDIT_EVERY, 0) in [entry[:2] for entry in micro_net.sim._samplers]


@pytest.mark.parametrize("build", [
    lambda: repro.network.Network(micro_config()),
    single_switch_net,
    fattree_net,
], ids=["micro", "single_switch", "fattree"])
def test_audit_walks_every_wired_mirror(build, monkeypatch):
    """A new wire kind cannot escape the audit: it walks one channel per
    mirror ``Network._wire`` / ``_wire_switch_link`` builds."""
    mirrors: list[VcSpaceAccounting] = []

    class Counted(VcSpaceAccounting):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            mirrors.append(self)

    monkeypatch.setattr(repro.network, "VcSpaceAccounting", Counted)
    channels = _channels(build())
    assert mirrors
    assert sorted(map(id, mirrors)) == sorted(id(ch[1]) for ch in channels)


def _tiny_point(scenario, variant: str, kernel: str, every: int | None):
    cfg = tiny_preset().with_(sim=SimParams(
        seed=5, warmup_cycles=16, measure_cycles=48, drain_cycles=32,
        kernel=kernel,
    ))
    net = build_network(scenario(cfg, variant).with_seed(5))
    if every is not None:
        net.sim.add_sampler(every, lambda cycle: audit(net))
    if scenario is congestion_scenario:
        net.add_source(
            BernoulliSource(rate=1.0, msg_flits=4, pattern=hotspot([0])),
            range(1, net.topology.num_nodes),
        )
    else:
        net.add_uniform_traffic(rate=0.5)
    return net.run_standard(), model_counters(net)


@pytest.mark.oracle_off  # compares an audited run against an unaudited one
@pytest.mark.parametrize("kernel", ["event", "polling"])
@pytest.mark.parametrize("variant", ["baseline", "stash100"])
@pytest.mark.parametrize("scenario", [reliability_scenario, congestion_scenario],
                         ids=["reliability", "congestion"])
def test_audit_every_cycle_changes_no_result(scenario, variant, kernel):
    plain = _tiny_point(scenario, variant, kernel, None)
    assert plain[0].packets_measured > 0
    assert _tiny_point(scenario, variant, kernel, 1) == plain

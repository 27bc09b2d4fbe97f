"""Mutation corpus for the wake contract (docs/WAKE_CONTRACT.md).

One mutant per wake / ``bind_wake`` call site in ``src/repro``: a copy
of the package with exactly that line blanked must die with
``WakeContractError`` on one short scenario under ``verify_wake``, and
the unmutated copy must run it clean.  One more row is the opposite
edit — a write that bypasses the method pairing it with its wake.  The
exhaustiveness test pins the corpus to the call sites themselves, so a
new wake site cannot land without a mutant (and a reworded site cannot
silently drop out of it).
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: the kernel's own wake API; wake_component forwarding to wake is not a
#: producer-side pairing and has no mutant
KERNEL = "engine/simulator.py"

WAKE_CALLS = frozenset({"wake", "wake_component", "bind_wake"})

#: name -> (file under src/repro, the one line to blank)
MUTANTS = {
    "channel_send": (
        "engine/channel.py",
        "            sim.wake(self._wake_idx, deliver)\n",
    ),
    "add_source": (
        "network.py",
        "            self.sim.wake_component(ep, self.sim.cycle)\n",
    ),
    "post_message": (
        "endpoints/endpoint.py",
        "        net.sim.wake_component(self, cycle)\n",
    ),
    "bind_endpoint_inputs": (
        "network.py",
        "                ep.flit_in.bind_wake(sim, idx)\n",
    ),
    "bind_switch_flit_in": (
        "network.py",
        "                    ip.flit_in.bind_wake(sim, idx)\n",
    ),
    "bind_switch_credit_in": (
        "network.py",
        "                    op.credit_in.bind_wake(sim, idx)\n",
    ),
}

#: name -> (file, line, replacement): not a blanked wake but a write that
#: never had one — the owner's paired method (``Channel.send``) bypassed
#: for a bare append to the sleeping consumer's queue
UNPAIRED_WRITES = {
    "endpoint_send_bypasses_channel": (
        "endpoints/endpoint.py",
        "        self.flit_out.send((vc, flit), cycle)\n",
        "        self.flit_out._queue.append(\n"
        "            (cycle + self.flit_out.latency, (vc, flit))\n"
        "        )\n",
    ),
}

#: idle -> add traffic -> drain -> a hot spot -> drain -> post a message
#: to a sleeping endpoint.  The hot spot is what makes an upstream switch
#: go idle while the switch serving node 0 still holds its flits: their
#: credits then return after its last retention release, to a switch
#: asleep with nothing else due (the ``bind_switch_credit_in`` row).
SCENARIO = """
from repro.engine.config import SimParams
from repro.network import Network
from repro.traffic.generators import BernoulliSource
from repro.traffic.patterns import hotspot
from tests.conftest import micro_config

net = Network(micro_config(sim=SimParams(seed=7, verify_wake=True)))
net.sim.run(500)
net.add_uniform_traffic(0.3, stop=1500)
net.sim.run(1500)
assert net.drain(20000), "failed to drain"
assert net.total_data_packets_delivered > 0, "no traffic delivered"
start = net.sim.cycle
net.add_source(
    BernoulliSource(1.0, 4, hotspot([0]), start=start, stop=start + 300),
    range(1, net.topology.num_nodes),
)
net.sim.run(300)
assert net.drain(20000), "failed to drain the hot spot"
msg = net.endpoints[0].post_message(3, 8, net.sim.cycle)
assert net.drain(20000), "failed to drain the posted message"
assert msg.delivered, "posted message not delivered"
"""


def _run_scenario(
    package_parent: Path, scenario: str = SCENARIO
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(package_parent), str(REPO)])
    return subprocess.run(
        [sys.executable, "-c", scenario],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _copy_package(tmp_path: Path) -> Path:
    copy = tmp_path / "repro"
    shutil.copytree(
        PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    return copy


def _edit_target(package: Path, rel: str, line: str) -> tuple[Path, str]:
    """(file, its source) of one edit; ``line`` must match exactly once."""
    path = package / rel
    source = path.read_text()
    assert source.count(line) == 1, f"{rel}: {line!r} must match once"
    return path, source


#: every row as (file, line, replacement): a wake site is blanked to ``pass``
EDITS = {
    **{
        name: (rel, line, line.replace(line.strip(), "pass"))
        for name, (rel, line) in MUTANTS.items()
    },
    **UNPAIRED_WRITES,
}


def test_unmutated_copy_runs_clean(tmp_path):
    _copy_package(tmp_path)
    proc = _run_scenario(tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(EDITS))
def test_mutant_dies_with_wake_contract_error(name, tmp_path):
    rel, line, replacement = EDITS[name]
    path, source = _edit_target(_copy_package(tmp_path), rel, line)
    path.write_text(source.replace(line, replacement))
    proc = _run_scenario(tmp_path)
    assert proc.returncode != 0, f"{name} survived"
    assert "WakeContractError" in proc.stderr, proc.stderr


def test_corpus_covers_every_wake_call_site():
    sites = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel == KERNEL:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in WAKE_CALLS
            ):
                sites.add((rel, node.lineno))
    covered = set()
    for rel, line in MUTANTS.values():
        _, source = _edit_target(PACKAGE, rel, line)
        covered.add((rel, source[: source.index(line)].count("\n") + 1))
    assert covered == sites

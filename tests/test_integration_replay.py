"""MPI trace replay over the network (the SST/Macro substitute)."""

import pytest

from repro.network import Network
from repro.trace.mpi import MpiProgram, all_to_all, allreduce
from repro.trace.replay import MpiReplay, run_trace
from tests.conftest import completed_messages, micro_config, single_switch_net


class TestBasicReplay:
    def test_single_send(self):
        net = single_switch_net()
        prog = MpiProgram("t", 2)
        prog.add_send(0, 1, 8)
        cycles = run_trace(net, prog)
        assert cycles > 0

    def test_ping_pong_orders_messages(self):
        """B's reply send must wait for A's message (recv dependency)."""
        net = single_switch_net()
        prog = MpiProgram("t", 2)
        prog.add_send(0, 1, 8, tag=0)  # A -> B
        prog.add_send(1, 0, 8, tag=1)  # B -> A, appended after B's recv
        done = completed_messages(net)
        run_trace(net, prog)
        msgs = sorted(done, key=lambda m: m.msg_id)
        a_to_b, b_to_a = msgs
        assert b_to_a.create_cycle >= a_to_b.complete_cycle

    def test_long_dependency_chain(self):
        """A token passed around a ring: completion times must be
        strictly increasing."""
        net = single_switch_net()
        n = 4
        # build in ring order: rank i's recv (from i-1) lands in its op
        # list before its own send, so the token is strictly passed on
        prog = MpiProgram("ring", n)
        for i in range(n):
            prog.add_send(i, (i + 1) % n, 4, tag=i)
        done = completed_messages(net)
        run_trace(net, prog)
        completes = {m.tag: m.complete_cycle for m in done}
        assert completes[0] < completes[1] < completes[2]

    def test_self_messages_complete_instantly(self):
        net = single_switch_net()
        prog = MpiProgram("t", 2)
        # hand-build a self-send: add_send skips it, so post via ops
        replay = MpiReplay(net, prog)
        net.sim.add(replay)
        net.sim.run(5)
        assert replay.finished

    def test_malformed_trace_rejected_upfront(self):
        net = single_switch_net()
        prog = MpiProgram("t", 2)
        prog.ops[0].append((1, 1, 99))  # recv that never matches
        with pytest.raises(ValueError, match="unmatched"):
            run_trace(net, prog, max_cycles=2000)

    def test_cycle_budget_exhaustion_raises(self):
        net = single_switch_net()
        prog = MpiProgram("t", 2)
        prog.add_send(0, 1, 500)  # needs far more than 20 cycles
        with pytest.raises(RuntimeError, match="incomplete"):
            run_trace(net, prog, max_cycles=20)


class TestCollectiveReplay:
    def test_allreduce_completes(self):
        net = single_switch_net()
        prog = MpiProgram("t", 6)
        allreduce(prog, list(range(6)), 4, 0)
        run_trace(net, prog)

    def test_all_to_all_completes_on_dragonfly(self):
        net = Network(micro_config())
        prog = MpiProgram("t", 6)
        all_to_all(prog, list(range(6)), 8, 0)
        cycles = run_trace(net, prog)
        assert cycles > 0

    def test_bandwidth_scales_runtime(self):
        """Doubling message sizes in an all-to-all must lengthen the
        bandwidth-bound execution."""
        times = []
        for size in (8, 16):
            net = single_switch_net()
            prog = MpiProgram("t", 6)
            all_to_all(prog, list(range(6)), size, 0)
            times.append(run_trace(net, prog))
        assert times[1] > times[0]


class TestRankMapping:
    def test_custom_mapping(self):
        net = Network(micro_config())
        prog = MpiProgram("t", 2)
        prog.add_send(0, 1, 4)
        # map ranks to the two most distant nodes
        done = completed_messages(net)
        run_trace(net, prog, rank_to_node=[0, net.topology.num_nodes - 1])
        (msg,) = done
        assert msg.src == 0
        assert msg.dst == net.topology.num_nodes - 1

    def test_non_injective_mapping_rejected(self):
        net = Network(micro_config())
        prog = MpiProgram("t", 2)
        prog.add_send(0, 1, 4)
        with pytest.raises(ValueError, match="injective"):
            MpiReplay(net, prog, rank_to_node=[1, 1])

    def test_too_many_ranks_rejected(self):
        net = single_switch_net()
        prog = MpiProgram("t", 99)
        with pytest.raises(ValueError, match="exceed"):
            MpiReplay(net, prog)

    def test_contiguous_default_mapping(self):
        net = Network(micro_config())
        prog = MpiProgram("t", 3)
        prog.add_send(2, 0, 4)
        replay = MpiReplay(net, prog)
        assert replay.rank_to_node == [0, 1, 2]

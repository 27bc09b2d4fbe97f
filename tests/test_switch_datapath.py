"""White-box invariants of the switch datapath, driven through small
networks."""

import pytest

from repro.engine.config import LinkParams, StashParams, SwitchParams
from repro.network import Network
from tests.conftest import drain_and_check, micro_config, single_switch_net


def _drained_net(stash=False, reliability=False, load=0.4, cycles=800):
    net = single_switch_net(stash=stash, reliability=reliability)
    net.add_uniform_traffic(rate=load, stop=cycles)
    net.sim.run(cycles)
    drain_and_check(net)
    return net


class TestCreditConservation:
    """After a full drain every credit must be back where it started —
    any leak would eventually wedge the switch."""

    def test_row_credits_restored(self):
        net = _drained_net()
        sw = net.switches[0]
        expected = sw.cfg.row_buffer_flits
        for ip in sw.in_ports:
            for col_credits in ip.row_credits:
                assert all(c == expected for c in col_credits), (
                    ip.idx, col_credits
                )

    def test_col_credits_restored(self):
        net = _drained_net()
        sw = net.switches[0]
        expected = sw.cfg.col_buffer_flits
        for row in sw.tiles:
            for tile in row:
                for out_credits in tile.col_credits:
                    assert all(c == expected for c in out_credits)

    def test_damq_space_restored(self):
        net = _drained_net()
        sw = net.switches[0]
        for ip in sw.in_ports:
            assert ip.damq.total_committed == 0
        for op in sw.out_ports:
            # retention releases may lag the last flit by one link RTT
            net.sim.run(op.retention + 2)
        for op in sw.out_ports:
            op.release_retained(net.sim.cycle + 10**6)
            assert op.out_damq.total_committed == 0

    def test_endpoint_mirrors_restored(self):
        net = _drained_net()
        net.sim.run(50)  # let trailing credits fly home
        for ep in net.endpoints:
            assert ep.mirror is not None
            # an idle endpoint applies arrived credits at its next step
            # (Endpoint.next_active_cycle); every one must have arrived
            # and, with those, the mirror must be whole
            wire = ep.credit_in._queue
            assert all(due <= net.sim.cycle for due, _ in wire)
            assert ep.mirror.total_committed == sum(n for _, (_vc, n) in wire)

    def test_credits_restored_with_stashing(self):
        net = _drained_net(stash=True, reliability=True)
        sw = net.switches[0]
        expected = sw.cfg.row_buffer_flits
        for ip in sw.in_ports:
            for col_credits in ip.row_credits:
                assert all(c == expected for c in col_credits)


class TestLocksReleased:
    def test_all_stream_state_cleared_after_drain(self):
        net = _drained_net(stash=True, reliability=True)
        sw = net.switches[0]
        for ip in sw.in_ports:
            assert all(s is None for s in ip.streams)
            assert ip.s_owner is None
            assert ip.retrieval is None
        for row in sw.tiles:
            for tile in row:
                for slot_streams in tile.streams:
                    assert all(s is None for s in slot_streams)
                for lock in tile.locks:
                    assert all(h is None for h in lock._holders)
        for op in sw.out_ports:
            assert all(s is None for s in op.link_streams)
            assert all(h is None for h in op.link_lock._holders)
            assert all(
                s is None for row in op.col_streams for s in row
            )
            assert op.sdrain_stream is None
            assert not op.stash_staging


class TestBroadcastDuplication:
    def test_copy_shares_flit_objects(self):
        """The multi-drop row bus latches the same wire value twice: the
        stashed copy must reference the original's flit objects, not
        clones (Section III-A: no extra bandwidth, no extra storage for
        a second packet object)."""
        net = single_switch_net(stash=True, reliability=True)
        msg = net.endpoints[0].post_message(1, 4, 0)
        sw = net.switches[0]
        stored = []
        for _ in range(60):  # catch the copy before the ACK deletes it
            net.sim.run(1)
            stored = [
                pkt
                for part in sw.stash_dir.partitions
                for pkt in part._entries.values()
            ]
            if stored:
                break
        assert len(stored) == 1
        assert stored[0].msg_id == msg.msg_id
        drain_and_check(net)

    def test_row_bus_one_winner_per_pass(self):
        """An input port launches at most speedup x cycles flits."""
        net = single_switch_net()
        net.endpoints[0].post_message(1, 400, 0)
        net.sim.run(100)
        ip = net.switches[0].in_ports[0]
        assert ip.flits_sent <= int(100 * net.config.switch.speedup) + 1


class TestSpeedupTokens:
    def test_speedup_runs_thirteen_passes_per_ten_cycles(self):
        """With speedup 1.3, internal stages run 13 passes per 10
        cycles; the schedule is a stateless function of the absolute
        cycle number so skipped idle cycles cannot shift it."""
        net = single_switch_net()
        sw = net.switches[0]
        n = sw._speedup_x10k
        assert n == 13_000
        tokens = [
            (cycle + 1) * n // 10_000 - cycle * n // 10_000
            for cycle in range(10)
        ]
        assert sum(tokens) == 13

    def test_speedup_one_never_doubles(self):
        cfg_kw = dict(
            num_ports=6, rows=2, cols=2, num_vcs=6,
            input_buffer_flits=96, output_buffer_flits=96,
            max_packet_flits=4, speedup=1.0,
        )
        net = single_switch_net(switch=SwitchParams(**cfg_kw))
        net.add_uniform_traffic(rate=0.3, stop=400)
        net.sim.run(400)
        drain_and_check(net)


class TestEcnOccupancySource:
    def test_congestion_state_tracks_normal_partition_only(self):
        net = single_switch_net(stash=True)
        sw = net.switches[0]
        ip = sw.in_ports[0]
        assert not ip.congested
        # fill 60 % of the input DAMQ
        target = int(ip.damq.capacity * 0.6)
        for _ in range(target):
            ip.damq.space.admit(0, 1)
        assert ip.congested
        ip.damq.space.release(0, target)
        assert not ip.congested


class TestIdleSwitchSleep:
    """An idle switch's wake rule (docs/PERFORMANCE.md, wake sources):
    an implicit-ack port's credits and retention releases count by their
    last deadline, a link-protocol port's credits by their first."""

    @staticmethod
    def _idle_port(**overrides):
        net = Network(micro_config(**overrides))
        sw = net.switches[0]
        op = next(op for op in sw._active_out if op.credit_in is not None)
        for _ in range(2):  # two flits sent and retained...
            op.mirror.admit(0, 1)
            op.out_damq.space.admit(0, 1)
        # ...and their credits on the way back
        op.credit_in.send((0, 1), 0)
        op.credit_in.send((0, 1), 6)
        return sw, op, op.credit_in.latency

    def test_implicit_ack_port_wakes_at_its_last_deadline(self):
        sw, op, latency = self._idle_port()
        op.pending_release.extend([(4, 0), (9, 0)])
        last = max(9, 6 + latency)
        assert sw.next_active_cycle(0) == last
        # a reader outside the switch's step settles what is due...
        sw.settle(5)
        assert op.out_damq.total_committed == 1
        assert op.mirror.total_committed == (2 if latency > 5 else 1)
        # ...which leaves the wake where it was
        assert sw.next_active_cycle(5) == last
        sw.settle(last)
        assert op.out_damq.total_committed == op.mirror.total_committed == 0
        assert sw.quiescent and sw.next_active_cycle(last) is None

    def test_link_protocol_port_wakes_at_its_first_credit(self):
        sw, op, latency = self._idle_port(link=LinkParams(enabled=True))
        assert op.link_tx is not None and not op.pending_release
        assert sw.next_active_cycle(0) == latency

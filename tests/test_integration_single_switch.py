"""Full-datapath integration on a single switch: ingress -> row bus ->
tile crossbar -> column channel -> output mux -> output buffer -> link."""

import pytest

from tests.conftest import completed_messages, drain_and_check, single_switch_net


class TestDelivery:
    def test_one_packet(self):
        net = single_switch_net()
        net.endpoints[0].post_message(1, 4, 0)
        drain_and_check(net)
        assert net.endpoints[1].packets_delivered == 1

    def test_all_to_all(self):
        net = single_switch_net()
        for src in range(6):
            for dst in range(6):
                if src != dst:
                    net.endpoints[src].post_message(dst, 8, 0)
        drain_and_check(net)
        assert all(ep.packets_delivered == 10 for ep in net.endpoints)

    def test_in_order_within_pair(self):
        """Single path per (src, dst) on one switch: packets of one
        message must arrive in sequence order."""
        net = single_switch_net()
        net.endpoints[0].post_message(1, 40, 0)  # 10 packets
        seqs = []
        net.on_packet_delivered_hooks.append(
            lambda pkt, c: seqs.append(pkt.seq)
        )
        drain_and_check(net)
        assert seqs == sorted(seqs)

    def test_min_latency_sane(self):
        """Latency >= channel latencies + pipeline depth."""
        net = single_switch_net()
        net.open_measurement()
        net.endpoints[0].post_message(1, 4, 0)
        drain_and_check(net)
        # 2 (inject) + 2 (eject) channel cycles + >=4 pipeline stages + flits
        assert net.latency.mean >= 8
        assert net.latency.mean <= 60  # and not absurdly slow

    def test_wide_packets_wormhole(self):
        """A packet larger than every internal buffer still flows
        (wormhole: it occupies multiple stages at once)."""
        net = single_switch_net()
        # message of 4 packets x 4 flits from every node to node 0
        for src in range(1, 6):
            net.endpoints[src].post_message(0, 16, 0)
        drain_and_check(net)
        assert net.endpoints[0].packets_delivered == 20


class TestBandwidth:
    def test_single_flow_near_link_rate(self):
        net = single_switch_net()
        net.endpoints[0].post_message(1, 400, 0)
        net.sim.run(600)
        # 400 flits over a 1 flit/cycle link with pipeline fill: done
        assert net.endpoints[1].flits_ejected >= 390

    def test_oversubscribed_output_shares_fairly(self):
        """Five sources to one destination: each gets ~1/5 of the link."""
        net = single_switch_net()
        delivered = {
            src: 0 for src in range(1, 6)
        }

        def count(pkt, _cycle):  # one message per source
            delivered[pkt.src] += 1

        net.on_packet_delivered_hooks.append(count)
        for src in range(1, 6):
            net.endpoints[src].post_message(0, 400, 0)
        net.sim.run(1200)
        total = sum(delivered.values())
        assert total > 0
        share = {s: d / total for s, d in delivered.items()}
        for s, frac in share.items():
            assert frac == pytest.approx(0.2, abs=0.06), share


class TestDeterminism:
    def _run(self, seed):
        net = single_switch_net()
        done = completed_messages(net)
        net.add_uniform_traffic(rate=0.4, stop=800)
        net.sim.run(800)
        net.drain(30000)
        return (
            sum(ep.flits_ejected for ep in net.endpoints),
            sorted(m.complete_cycle for m in done),
        )

    def test_same_config_bit_identical(self):
        assert self._run(1) == self._run(1)


class TestIdleFastPath:
    def test_idle_switch_skips_work(self):
        net = single_switch_net()
        sw = net.switches[0]
        assert sw.quiescent
        net.sim.run(100)
        assert sw.quiescent
        net.endpoints[0].post_message(1, 4, net.sim.cycle)
        net.sim.run(5)
        assert not sw.quiescent
        drain_and_check(net)

    def test_inflight_counter_balances(self):
        net = single_switch_net()
        net.add_uniform_traffic(rate=0.5, stop=500)
        net.sim.run(500)
        drain_and_check(net)

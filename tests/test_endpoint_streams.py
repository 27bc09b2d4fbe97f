"""Per-VC endpoint injection streams.

The NIC keeps one in-progress packet per injection VC, so ACKs (VC 1)
interleave into a long data stream (VC 0) instead of queueing behind it.
This is the property that breaks the reliability-stashing ACK deadlock
(see docs/ARCHITECTURE.md section 3.3).
"""

from repro.endpoints.endpoint import ACK_INJECT_VC, DATA_INJECT_VC
from tests.conftest import drain_and_check, single_switch_net


def _sent_last_cycle(ep, cycle):
    """The ``(vc, flit)`` the endpoint put on its injection wire in the
    cycle before ``cycle``, read without taking it off the wire."""
    due = cycle - 1 + ep.flit_out.latency
    return [item for when, item in ep.flit_out._queue if when == due]


def test_ack_interleaves_into_data_stream():
    net = single_switch_net()
    ep0 = net.endpoints[0]
    # a long data message keeps VC0 busy for many cycles...
    ep0.post_message(1, 60, 0)
    # ...while node 2's short message to node 0 will make ep0 owe an ACK
    net.endpoints[2].post_message(0, 4, 0)

    seen_vcs: list[int] = []
    for _ in range(60):
        net.sim.run(1)
        seen_vcs += [vc for vc, _flit in _sent_last_cycle(ep0, net.sim.cycle)]
        if ACK_INJECT_VC in seen_vcs:
            break
    assert ACK_INJECT_VC in seen_vcs, "ACK never injected"
    idx = seen_vcs.index(ACK_INJECT_VC)
    # the ACK went out while VC0 data flits were still flowing: data
    # appears both before and after it
    assert DATA_INJECT_VC in seen_vcs[:idx]
    drain_and_check(net)


def test_data_resumes_after_ack():
    net = single_switch_net()
    net.endpoints[0].post_message(1, 24, 0)
    net.endpoints[2].post_message(0, 4, 0)
    drain_and_check(net)
    # all 6 data packets of the 24-flit message arrived despite the
    # interleaved ACK
    assert net.endpoints[1].packets_delivered == 6


def test_single_stream_per_vc():
    """Two data messages to different destinations still share VC0: the
    NIC starts the second packet only after the first packet's tail."""
    net = single_switch_net()
    ep = net.endpoints[0]
    ep.post_message(1, 8, 0)
    ep.post_message(2, 8, 0)
    heads = []
    for _ in range(80):
        net.sim.run(1)
        for vc, flit in _sent_last_cycle(ep, net.sim.cycle):
            if vc == DATA_INJECT_VC:
                heads.append((flit.pkt.pid, flit.head, flit.tail))
    # flits of distinct packets never interleave on VC0: each pid forms
    # exactly one contiguous run in the wire order
    pids = [pid for pid, _, _ in heads]
    runs = [pid for i, pid in enumerate(pids) if i == 0 or pids[i - 1] != pid]
    assert len(runs) == len(set(pids))
    assert len(set(pids)) == 4  # two 8-flit messages = four 4-flit packets

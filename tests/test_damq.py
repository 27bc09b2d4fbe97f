"""DAMQ buffers and the credit-mirror protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.switch.damq import Damq, VcSpaceAccounting
from repro.switch.flit import Packet
from tests.conftest import packet_flits


class TestVcSpaceAccounting:
    def test_reserve_guarantees_per_vc_space(self):
        acc = VcSpaceAccounting(num_vcs=2, capacity=20, reserve=5)
        acc.admit(0, 10)  # 5 private + 5 shared; shared pool = 10
        assert acc.can_admit(1, 5)  # vc1's private reserve is untouchable
        acc.admit(1, 5)
        assert not acc.can_admit(1, 6)
        assert acc.can_admit(1, 5)

    def test_shared_pool_exhaustion(self):
        acc = VcSpaceAccounting(num_vcs=2, capacity=10, reserve=0)
        acc.admit(0, 7)
        assert not acc.can_admit(1, 4)
        assert acc.can_admit(1, 3)

    def test_release_returns_shared_first(self):
        acc = VcSpaceAccounting(num_vcs=2, capacity=10, reserve=2)
        acc.admit(0, 6)  # 2 private + 4 shared
        acc.release(0, 4)
        assert acc.committed[0] == 2
        assert acc.can_admit(1, 8)  # all shared space back

    def test_over_release_rejected(self):
        acc = VcSpaceAccounting(1, 10, 0)
        acc.admit(0, 3)
        with pytest.raises(RuntimeError):
            acc.release(0, 4)

    def test_over_admit_rejected(self):
        acc = VcSpaceAccounting(1, 4, 0)
        with pytest.raises(RuntimeError):
            acc.admit(0, 5)

    def test_capacity_must_cover_reserves(self):
        with pytest.raises(ValueError):
            VcSpaceAccounting(num_vcs=4, capacity=10, reserve=3)

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 8)), max_size=60
        )
    )
    @settings(max_examples=60)
    def test_invariants_under_random_traffic(self, ops):
        acc = VcSpaceAccounting(num_vcs=4, capacity=64, reserve=4)
        for vc, n in ops:
            if acc.can_admit(vc, n):
                acc.admit(vc, n)
            elif acc.committed[vc] >= n:
                acc.release(vc, n)
        # invariants: never exceed capacity; shared accounting consistent
        assert 0 <= acc.total_committed <= acc.capacity
        shared = sum(
            max(0, c - r) for c, r in zip(acc.committed, acc.reserves)
        )
        assert shared == acc._shared_used
        assert shared <= acc.shared_capacity


class TestDamq:
    def _pkt(self, size=4, pid=1):
        return Packet(pid, 0, 1, size)

    def test_admit_then_stream(self):
        d = Damq(num_vcs=2, capacity=16, reserve=0)
        pkt = self._pkt(4)
        for f in packet_flits(pkt):
            assert d.space.can_admit(0, 1)
            d.admit_flit(0)
            d.push(0, f)
        assert len(d.queues[0]) == d.total_flits == 4
        assert d.total_committed == 4
        out = [d.pop_no_release(0) for _ in range(4)]
        assert [(f.pkt, f.idx) for f in out] == [(pkt, i) for i in range(4)]
        d.space.release(0, 4)
        assert d.total_flits == d.total_committed == d.occ_mask == 0

    def test_admit_respects_capacity(self):
        d = Damq(1, 2, 0)
        d.admit_flit(0)
        d.admit_flit(0)
        assert not d.space.can_admit(0, 1)
        with pytest.raises(RuntimeError):
            d.admit_flit(0)

    def test_pop_no_release_retains_space(self):
        d = Damq(1, 8, 0)
        pkt = self._pkt(2)
        d.admit_flit(0)
        d.push(0, packet_flits(pkt)[0])
        d.pop_no_release(0)
        assert d.total_committed == 1  # space still held
        d.space.release(0, 1)
        assert d.total_committed == 0

    def test_occupancy_fraction(self):
        d = Damq(1, 10, 0)
        for _ in range(5):
            d.admit_flit(0)
        assert d.occupancy_fraction() == pytest.approx(0.5)


class TestMirrorProtocol:
    """The upstream mirror must track the downstream buffer exactly."""

    def test_mirror_and_real_agree(self):
        real = Damq(num_vcs=2, capacity=12, reserve=0)
        mirror = VcSpaceAccounting(num_vcs=2, capacity=12, reserve=0)
        p1, p2 = Packet(1, 0, 1, 4), Packet(2, 0, 1, 4)

        for f in packet_flits(p1):
            assert mirror.can_admit(0, 1)
            mirror.admit(0, 1)
            real.admit_flit(0)
            real.push(0, f)
        for f in packet_flits(p2):
            mirror.admit(1, 1)
            real.admit_flit(1)
            real.push(1, f)

        assert mirror.total_committed == real.total_committed == 8
        for _ in range(4):
            mirror.admit(0, 1)
        assert not mirror.can_admit(0, 1)

        # downstream pops two flits and returns credits
        real.pop_no_release(0)
        real.pop_no_release(0)
        real.space.release(0, 2)
        mirror.release(0, 2)
        assert mirror.total_committed - 4 == real.total_committed == 6

    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=30),
    )
    @settings(max_examples=50)
    def test_mirror_never_overflows_real(self, sizes):
        """Admission control through the mirror guarantees the real
        buffer always accepts what arrives."""
        real = Damq(num_vcs=3, capacity=24, reserve=0)
        mirror = VcSpaceAccounting(num_vcs=3, capacity=24, reserve=0)
        in_flight: list[int] = []
        for i, size in enumerate(sizes):
            vc = i % 3
            sent = 0
            while sent < size and mirror.can_admit(vc, 1):
                mirror.admit(vc, 1)
                real.admit_flit(vc)  # must never raise
                in_flight.append(vc)
                sent += 1
            if sent < size and in_flight:
                vc0 = in_flight.pop(0)
                real.space.release(vc0, 1)
                mirror.release(vc0, 1)
        assert mirror.total_committed == real.total_committed

"""Stash partitions, directory, jobs (the paper's core storage)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stash import StashDirectory, StashJob, StashPartition
from repro.switch.flit import Packet


def _pkt(size=4, pid=1):
    return Packet(pid, 0, 1, size)


def _empty(p):
    """The audit's stash identity at zero: nothing held, nothing committed."""
    held = p.stored_total - p.deleted_total - p.retrieved_total
    return (held, p.fifo_depth, p.committed_flits) == (0, 0, 0)


class TestStashPartition:
    def test_zero_capacity_port_disabled(self):
        p = StashPartition(port=4, capacity_flits=0)
        assert not p.enabled
        assert not p.can_admit(1)

    def test_capacity_page_aligned(self):
        p = StashPartition(0, 33)
        assert p.capacity == 32

    def test_store_delete_cycle(self):
        p = StashPartition(0, 64)
        pkt = _pkt(6)
        p.commit(pkt.size)
        loc = p.store(pkt)
        assert p.get(loc) is pkt
        assert p.committed_flits == 6  # page-rounded: 6 -> 6? 6 rounds to 6
        p.delete(loc)
        assert _empty(p)

    def test_commit_rounds_to_pages(self):
        p = StashPartition(0, 64)
        p.commit(5)
        assert p.committed_flits == 6  # 5 flits -> 3 pages

    def test_locations_unique_even_after_delete(self):
        p = StashPartition(0, 64)
        p.commit(2)
        loc1 = p.store(_pkt(2, 1))
        p.delete(loc1)
        p.commit(2)
        loc2 = p.store(_pkt(2, 2))
        assert loc2 != loc1

    def test_retrieve_frees_space(self):
        p = StashPartition(0, 16)
        pkt = _pkt(8)
        p.commit(8)
        loc = p.store(pkt)
        assert not p.can_admit(16)
        got = p.retrieve(loc)
        assert got is pkt
        assert p.can_admit(16)

    def test_overflow_rejected(self):
        p = StashPartition(0, 8)
        p.commit(8)
        with pytest.raises(RuntimeError):
            p.commit(2)

    def test_fifo_order(self):
        p = StashPartition(0, 64)
        pkts = [_pkt(4, pid) for pid in range(3)]
        for pkt in pkts:
            p.commit(4)
            p.push_fifo(pkt)
        assert p.fifo_depth == 3
        assert p.front_fifo() is pkts[0]
        assert [p.pop_fifo() for _ in range(3)] == pkts
        assert _empty(p)

    def test_peak_tracking(self):
        p = StashPartition(0, 64)
        p.commit(32)
        p._release(32)
        p.commit(8)
        assert p.peak_committed == 32

    def test_occupancy_fraction(self):
        p = StashPartition(0, 64)
        p.commit(16)
        assert p.occupancy_fraction() == pytest.approx(0.25)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 10)), max_size=60
        )
    )
    @settings(max_examples=50)
    def test_space_never_negative_or_over(self, ops):
        p = StashPartition(0, 48)
        live: list[int] = []
        for is_store, size in ops:
            if is_store and p.can_admit(size):
                p.commit(size)
                live.append(p.store(_pkt(size, len(live))))
            elif not is_store and live:
                p.delete(live.pop(0))
            assert 0 <= p.committed_flits <= p.capacity

    def test_store_without_commit_rejected(self):
        # regression: store()/push_fifo() used to accept packets with no
        # matching commit, letting stored data exceed the committed space
        p = StashPartition(0, 64)
        with pytest.raises(RuntimeError, match="without a matching commit"):
            p.store(_pkt(4))
        assert _empty(p)

    def test_push_fifo_without_commit_rejected(self):
        p = StashPartition(0, 64)
        with pytest.raises(RuntimeError, match="without a matching commit"):
            p.push_fifo(_pkt(4))
        assert p.fifo_depth == 0

    def test_store_beyond_committed_rejected(self):
        p = StashPartition(0, 64)
        p.commit(4)  # room for exactly one 4-flit packet
        p.store(_pkt(4, 1))
        with pytest.raises(RuntimeError, match="without a matching commit"):
            p.store(_pkt(4, 2))

    def test_delete_frees_stored_pages_for_new_commits(self):
        p = StashPartition(0, 64)
        p.commit(4)
        loc = p.store(_pkt(4, 1))
        p.delete(loc)
        p.commit(4)
        p.store(_pkt(4, 2))  # freed pages usable again after delete


class TestStashDirectory:
    def _directory(self):
        # 6 ports, 2 columns of 3: ports 0-2 column 0, ports 3-5 column 1;
        # port 5 (a "global") has no stash
        caps = [32, 32, 16, 32, 16, 0]
        parts = [StashPartition(i, c) for i, c in enumerate(caps)]
        return parts, StashDirectory(parts, cols=2, tile_outputs=3)

    def test_column_membership_excludes_disabled(self):
        _, d = self._directory()
        assert d.ports_in_column(0) == [0, 1, 2]
        assert d.ports_in_column(1) == [3, 4]  # port 5 omitted (paper: a priori)

    def test_column_free_tracks_commits(self):
        parts, d = self._directory()
        assert d.column_free_flits(0) == 80
        parts[1].commit(10)
        assert d.column_free_flits(0) == 70

    def test_utilization(self):
        parts, d = self._directory()
        assert d.utilization() == 0.0
        parts[0].commit(32)
        assert d.utilization() == pytest.approx(32 / 128)

    def test_stash_columns(self):
        parts = [StashPartition(i, 0) for i in range(6)]
        parts[4] = StashPartition(4, 16)
        d = StashDirectory(parts, cols=2, tile_outputs=3)
        assert d.stash_columns() == [1]


class TestStashJob:
    def test_copy_requires_origin(self):
        with pytest.raises(ValueError):
            StashJob("copy", _pkt())

    def test_divert_needs_no_origin(self):
        job = StashJob("divert", _pkt())
        assert job.origin_port == -1

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError):
            StashJob("archive", _pkt())

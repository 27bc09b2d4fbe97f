"""Round-robin arbiters and VC stream locks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.switch.arbiters import RoundRobinArbiter, VcStreamLock


class TestRoundRobin:
    def test_rotates_priority(self):
        arb = RoundRobinArbiter(4)
        winners = [arb.pick([0, 1, 2, 3]) for _ in range(8)]
        assert winners == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_fairness_over_window(self):
        arb = RoundRobinArbiter(3)
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(300):
            counts[arb.pick([0, 1, 2])] += 1
        assert all(c == 100 for c in counts.values())

    def test_skips_ineligible(self):
        arb = RoundRobinArbiter(4)
        assert arb.pick([2]) == 2
        assert arb.pick([0, 1]) == 0  # pointer moved past 2 -> wraps to 3, 0

    def test_single_candidate_still_rotates_pointer(self):
        arb = RoundRobinArbiter(3)
        arb.pick([1])
        assert arb.pick([0, 2]) == 2  # pointer at 2 now

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(2).pick([])

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    @given(
        st.integers(2, 8),
        st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=8), max_size=50),
    )
    @settings(max_examples=50)
    def test_winner_always_eligible(self, n, rounds):
        arb = RoundRobinArbiter(n)
        for eligible in rounds:
            eligible = [e % n for e in eligible]
            assert arb.pick(eligible) in eligible

    @given(st.integers(2, 6), st.integers(1, 200))
    @settings(max_examples=30)
    def test_no_starvation(self, n, iterations):
        """With all requesters always eligible, nobody waits more than
        n-1 grants."""
        arb = RoundRobinArbiter(n)
        last_win = {i: -1 for i in range(n)}
        for t in range(iterations):
            w = arb.pick(list(range(n)))
            last_win[w] = t
        if iterations >= n:
            assert all(t >= iterations - n for t in last_win.values())


class TestVcStreamLock:
    def test_acquire_release(self):
        lock = VcStreamLock(2)
        lock.acquire(0, "a")
        assert not lock.available_to(0, "b")
        assert lock.available_to(0, "a")
        assert lock.available_to(1, "b")  # other VC untouched
        lock.release(0, "a")
        assert lock.available_to(0, "b")

    def test_double_acquire_conflict(self):
        lock = VcStreamLock(1)
        lock.acquire(0, "a")
        with pytest.raises(RuntimeError):
            lock.acquire(0, "b")

    def test_release_by_non_holder_rejected(self):
        lock = VcStreamLock(1)
        lock.acquire(0, "a")
        with pytest.raises(RuntimeError):
            lock.release(0, "b")

"""Traffic patterns and injection processes."""

import random

import pytest

from repro.traffic.generators import BernoulliSource, BurstSource
from repro.traffic.patterns import (
    bit_complement,
    hotspot,
    permutation,
    uniform_random,
)


class TestPatterns:
    def test_uniform_never_self(self):
        pick = uniform_random(8)
        rng = random.Random(1)
        for _ in range(500):
            src = rng.randrange(8)
            assert pick(src, rng) != src

    def test_uniform_covers_all_destinations(self):
        pick = uniform_random(6)
        rng = random.Random(2)
        seen = {pick(0, rng) for _ in range(300)}
        assert seen == {1, 2, 3, 4, 5}

    def test_uniform_needs_two_nodes(self):
        with pytest.raises(ValueError):
            uniform_random(1)

    def test_permutation(self):
        pick = permutation([1, 0, 3, 2])
        rng = random.Random(1)
        assert pick(0, rng) == 1
        assert pick(3, rng) == 2

    def test_permutation_rejects_self_map(self):
        with pytest.raises(ValueError):
            permutation([0, 1])

    def test_bit_complement(self):
        pick = bit_complement(8)
        assert pick(0, random.Random(1)) == 7
        assert pick(3, random.Random(1)) == 4

    def test_bit_complement_needs_even(self):
        with pytest.raises(ValueError):
            bit_complement(7)

    def test_hotspot_targets_only_listed(self):
        pick = hotspot([2, 5])
        rng = random.Random(1)
        assert {pick(0, rng) for _ in range(100)} == {2, 5}

    def test_hotspot_avoids_self_when_possible(self):
        pick = hotspot([2, 5])
        rng = random.Random(1)
        assert all(pick(2, rng) == 5 for _ in range(20))

    def test_hotspot_empty_rejected(self):
        with pytest.raises(ValueError):
            hotspot([])


class FakeEndpoint:
    def __init__(self, node=0, seed=1):
        self.node = node
        self.rng = random.Random(seed)
        self.posted = []
        self.backlog_flits = 0
        self.rng_shared = False  # the source owns the stream: draw ahead

    def post_message(self, dst, size, cycle, tag=0, on_complete=None):
        self.posted.append((dst, size, cycle, tag))
        self.backlog_flits += size


class TestBernoulliSource:
    def test_rate_matches_expectation(self):
        src = BernoulliSource(rate=0.5, msg_flits=8,
                              pattern=uniform_random(4))
        ep = FakeEndpoint()
        cycles = 40_000
        for c in range(cycles):
            src.generate(ep, c)
        flits = sum(size for _, size, _, _ in ep.posted)
        assert flits / cycles == pytest.approx(0.5, rel=0.1)

    def test_start_stop_window(self):
        src = BernoulliSource(rate=1.0, msg_flits=1,
                              pattern=uniform_random(4), start=10, stop=20)
        ep = FakeEndpoint()
        for c in range(40):
            src.generate(ep, c)
        assert all(10 <= c < 20 for _, _, c, _ in ep.posted)
        assert len(ep.posted) == 10

    def test_zero_rate_generates_nothing(self):
        src = BernoulliSource(rate=0.0, msg_flits=4, pattern=uniform_random(4))
        ep = FakeEndpoint()
        for c in range(100):
            src.generate(ep, c)
        assert not ep.posted

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BernoulliSource(rate=1.5, msg_flits=4, pattern=uniform_random(4))

    def test_tag_propagates(self):
        src = BernoulliSource(rate=1.0, msg_flits=1,
                              pattern=uniform_random(4), tag=9)
        ep = FakeEndpoint()
        src.generate(ep, 0)
        assert ep.posted and ep.posted[0][3] == 9


class TestBurstSource:
    def test_keeps_outstanding_bound(self):
        src = BurstSource(msg_flits=32, pattern=uniform_random(4),
                          outstanding=2)
        ep = FakeEndpoint()
        src.generate(ep, 0)
        assert ep.backlog_flits == 64
        src.generate(ep, 1)  # already at bound: nothing new
        assert ep.backlog_flits == 64
        ep.backlog_flits = 10  # network drained most of it
        src.generate(ep, 2)
        assert ep.backlog_flits >= 64

    def test_window(self):
        src = BurstSource(msg_flits=8, pattern=uniform_random(4),
                          start=5, stop=6)
        ep = FakeEndpoint()
        src.generate(ep, 0)
        assert not ep.posted
        src.generate(ep, 5)
        assert ep.posted

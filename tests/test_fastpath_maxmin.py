"""The max-min bottleneck certificate for the flow engine's allocator.

An allocation is max-min fair exactly when every flow is either at its
demand cap or crosses a saturated link on which no flow gets more than
it does, and no link is over capacity.  The pre-array solver stalled
after the first stash pool saturated and left 588-840 of the 882 flows
of tiny stash25 @0.8 with neither; ``_maxmin`` now runs to completion,
and this module holds it to the certificate on drawn instances and on
every fixed-point step of two stash-bound runs.  It also holds
``_maxmin`` byte for byte to a frozen copy of its form before it
stopped at the last freeze, and counts what a one-round call computes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import fastpath
from repro.engine.config import tiny_preset
from repro.scenario import UniformTraffic, reliability_scenario
from tests.conftest import micro_config

_REL = 1e-9


def incidence(flow_links, n_links):
    """``_Incidence`` for flows given as lists of link ids."""
    return fastpath._Incidence.build(
        np.array([len(links) for links in flow_links], dtype=np.intp),
        np.array([l for links in flow_links for l in links], dtype=np.intp),
        n_links,
    )


def assert_maxmin(inc, entry_weight, caps, demand_caps, alloc):
    """Fail unless ``alloc`` carries the max-min certificate."""
    n_links = len(caps)
    load = np.bincount(
        inc.entry_link, entry_weight * alloc[inc.entry_flow], minlength=n_links
    )
    assert (load <= caps * (1 + _REL)).all(), "a link is over capacity"
    assert (alloc <= demand_caps * (1 + _REL)).all(), "a flow is over demand"
    saturated = load >= caps * (1 - _REL)
    top_rate = np.zeros(n_links)
    np.maximum.at(top_rate, inc.entry_link, alloc[inc.entry_flow])
    bottleneck = saturated[inc.entry_link] & (
        alloc[inc.entry_flow] >= top_rate[inc.entry_link] * (1 - _REL)
    )
    certified = (alloc >= demand_caps * (1 - _REL)) | (
        np.bincount(inc.entry_flow, bottleneck, minlength=len(alloc)) > 0
    )
    assert certified.all(), (
        f"{(~certified).sum()} of {len(alloc)} flows are neither at their "
        "demand nor bottlenecked on a saturated link"
    )


@st.composite
def pooled_instances(draw):
    """A few unit links plus >= 2 'pool' links consumed at coefficients
    >= 100, so that several pools bind at different water levels."""
    n_unit = draw(st.integers(1, 4))
    n_pool = draw(st.integers(2, 4))
    n_links = n_unit + n_pool
    n_flows = draw(st.integers(1, 14))
    rates = st.floats(0.01, 2.0)
    flow_links, coeffs, demands = [], [], []
    for _ in range(n_flows):
        links = draw(st.lists(
            st.integers(0, n_links - 1), unique=True, max_size=n_links
        ))
        weight = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        flow_links.append(links)
        coeffs.extend(
            weight * (draw(st.floats(100.0, 1000.0)) if l >= n_unit else 1.0)
            for l in links
        )
        demands.append(draw(st.one_of(st.just(0.0), rates)))
    caps = [draw(st.floats(0.2, 4.0)) for _ in range(n_unit)]
    caps += [draw(st.floats(50.0, 5000.0)) for _ in range(n_pool)]
    return (
        incidence(flow_links, n_links), np.array(coeffs, dtype=float),
        np.array(caps), np.array(demands),
    )


@settings(max_examples=300, deadline=None)
@given(pooled_instances())
def test_drawn_instances_carry_the_certificate(instance):
    assert_maxmin(*instance, fastpath._maxmin(*instance))


@pytest.mark.parametrize("cfg, variant, rate", [
    (tiny_preset(), "stash25", 0.8),
    (micro_config(), "stash50", 0.9),
])
def test_every_fixed_point_step_carries_the_certificate(
    monkeypatch, cfg, variant, rate
):
    original = fastpath._maxmin
    steps = []

    def checked(*args):
        # checked on the spot: the engine rewrites entry weights in place
        alloc = original(*args)
        assert_maxmin(*args, alloc)
        steps.append(alloc)
        return alloc

    monkeypatch.setattr(fastpath, "_maxmin", checked)
    fastpath.FlowEngine().run(reliability_scenario(
        cfg, variant, traffic=(UniformTraffic(rate=rate),)
    ))
    assert len(steps) == fastpath._FP_STEPS


@st.composite
def freezes(draw):
    """A CSR pointer over drawn row lengths (empty rows too), a set of
    distinct rows in drawn order and dtype, and per-entry links and
    weights plus per-row allocations spread over six decades, so that a
    sum in any other order rounds differently."""
    lens = draw(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    ptr = np.concatenate(([0], np.cumsum(lens))).astype(np.intp)
    n_entries = int(ptr[-1])
    rows = draw(st.lists(st.integers(0, len(lens) - 1), unique=True))
    dtype = draw(st.sampled_from([np.intp, np.int32]))
    wide = st.floats(1e-3, 1e3)
    return (
        ptr, np.array(rows, dtype=dtype),
        np.array(draw(st.lists(wide, min_size=len(lens), max_size=len(lens)))),
        np.array(draw(st.lists(st.integers(0, 3), min_size=n_entries,
                               max_size=n_entries)), dtype=np.intp),
        np.array(draw(st.lists(wide, min_size=n_entries,
                               max_size=n_entries))),
    )


@settings(max_examples=200, deadline=None)
@given(freezes())
def test_freeze_update_is_the_entry_order_loop(case):
    """``_maxmin``'s freeze update, step by step, equals the plain loop
    over the frozen flows' entries in flow order: the entry indices,
    each entry's allocation, and the frozen load summed in that order
    (a chunked or mask-ordered sum would round differently)."""
    ptr, rows, alloc, entry_link, entry_weight = case
    entries = [(r, e) for r in rows.tolist()
               for e in range(ptr[r], ptr[r + 1])]
    gone = fastpath._ragged(ptr, rows)
    assert gone.tolist() == [e for _, e in entries]
    per_entry = fastpath._entry_values(ptr, rows, alloc)
    assert per_entry.tolist() == [alloc[r] for r, _ in entries]
    weight = entry_weight[gone]
    weight *= per_entry
    load = [0.0] * 4
    for r, e in entries:
        load[entry_link[e]] += entry_weight[e] * alloc[r]
    assert np.bincount(
        entry_link[gone], weight, minlength=4
    ).tolist() == load


# ----------------------------------------------------------------------
# byte identity with the allocator before it stopped at the last freeze
# ----------------------------------------------------------------------


def reference_maxmin_before_early_exit(inc, entry_weight, caps, demand_caps):
    """``_maxmin`` as it was before it stopped at the freeze that empties
    the active set, built its first link counts from the CSR and
    expanded flows to entries by ``np.repeat``: the pre-change reference,
    frozen here with its two helpers so that a later edit to either
    cannot move it.  Every round, the last one too, runs the full freeze
    update."""

    def ragged(ptr, rows):
        starts = ptr[rows]
        lens = ptr[rows + 1] - starts
        ends = np.cumsum(lens)
        out = np.repeat(starts - (ends - lens), lens)
        out += np.arange(len(out))
        return out

    def entry_values(ptr, rows, values):
        return values[rows].repeat(ptr[rows + 1] - ptr[rows])

    eps, n_links = 1e-12, len(caps)
    alloc = np.zeros(len(demand_caps))
    order = np.argsort(demand_caps, kind="stable")
    sorted_caps = demand_caps[order]
    done = int(np.searchsorted(sorted_caps, eps, side="right"))
    active = demand_caps > eps
    remaining = len(order) - done
    live_links, live_weight = inc.entry_link, entry_weight
    if done:
        live = active[inc.entry_flow]
        live_links, live_weight = live_links[live], live_weight[live]
    link_weight = np.bincount(live_links, live_weight, minlength=n_links)
    link_count = np.bincount(live_links, minlength=n_links)
    frozen_load = np.zeros(n_links)
    while remaining:
        fill = np.full(n_links, np.inf)
        np.divide(
            caps - frozen_load, link_weight, out=fill, where=link_count > 0
        )
        level = max(float(fill.min(initial=np.inf)), 0.0)
        upto = int(np.searchsorted(sorted_caps, level + eps, side="right"))
        if upto > done:
            flows = order[done:upto]
            flows = flows[active[flows]]
            done = upto
            alloc[flows] = demand_caps[flows]
        else:
            full = np.flatnonzero(fill <= level + eps)
            flows = inc.link_flow[ragged(inc.link_ptr, full)].astype(np.intp)
            flows = np.sort(flows[active[flows]])
            flows = flows[np.diff(flows, prepend=-1) > 0]
            alloc[flows] = level
        active[flows] = False
        remaining -= len(flows)
        gone = ragged(inc.flow_ptr, flows)
        links, weight = inc.entry_link[gone], entry_weight[gone]
        link_weight -= np.bincount(links, weight, minlength=n_links)
        link_count -= np.bincount(links, minlength=n_links)
        weight *= entry_values(inc.flow_ptr, flows, alloc)
        frozen_load += np.bincount(links, weight, minlength=n_links)
    return alloc


#: instance shapes that reach each of the allocator's paths
_SHAPES = ("zero_demand", "one_round", "tie", "free")


@st.composite
def identity_instances(draw):
    """Flows over a few links, drawn in one of :data:`_SHAPES`:
    ``zero_demand`` gives some flows no demand (they start frozen, so
    the first link counts come from a mask), ``one_round`` keeps every
    demand below every link's first fill level (one round freezes all
    flows at their demands), ``tie`` uses unit weights and caps from
    {1, 2} with demands above any level (links saturate at equal levels
    in one round), ``free`` draws weights, caps and demands from wide
    float ranges."""
    shape = draw(st.sampled_from(_SHAPES))
    n_links = draw(st.integers(1, 6))
    flow_links = draw(st.lists(
        st.lists(st.integers(0, n_links - 1), unique=True, max_size=n_links),
        min_size=1, max_size=16,
    ))
    n_entries = sum(map(len, flow_links))
    n_flows = len(flow_links)
    if shape == "tie":
        weights = st.just(1.0)
        caps = st.sampled_from([1.0, 2.0])
        demands = st.just(8.0)
    elif shape == "free":
        weights = st.floats(0.01, 1000.0)
        caps = st.floats(0.01, 5000.0)
        demands = st.one_of(st.just(0.0), st.floats(1e-6, 4.0))
    else:
        # dyadic values, so fills and demands can meet exactly
        weights = st.sampled_from([0.5, 1.0, 2.0, 3.0])
        caps = st.sampled_from([0.5, 1.0, 2.0, 4.0])
        demands = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 4.0])
        if shape == "one_round":
            # a link's first fill is >= 0.5 / (16 flows * weight 3)
            demands = st.sampled_from([0.001, 0.002, 0.004])
    return (
        shape,
        incidence(flow_links, n_links),
        np.array(draw(st.lists(weights, min_size=n_entries,
                               max_size=n_entries)), dtype=float),
        np.array(draw(st.lists(caps, min_size=n_links, max_size=n_links))),
        np.array(draw(st.lists(demands, min_size=n_flows,
                               max_size=n_flows)), dtype=float),
    )


@settings(max_examples=400, deadline=None)
@given(identity_instances())
def test_maxmin_is_byte_identical_to_the_pre_change_reference(instance):
    """The rounds ``_maxmin`` no longer runs, and the counts and entry
    values it now builds another way, change no bit of any allocation
    (``test_fastpath_oracle`` compares with a tolerance; this does
    not)."""
    shape, inc, entry_weight, caps, demand_caps = instance
    alloc = fastpath._maxmin(inc, entry_weight, caps, demand_caps)
    expected = reference_maxmin_before_early_exit(
        inc, entry_weight, caps, demand_caps
    )
    assert alloc.tobytes() == expected.tobytes()
    if shape == "one_round":
        assert alloc.tobytes() == demand_caps.tobytes()


def test_identity_instances_reach_every_shape():
    """The byte-identity draws exercise what they claim: some flows
    start frozen, a single round freezes every flow at its demand, and
    two links are the first to saturate, at one level."""
    seen = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(identity_instances())
    def record(instance):
        shape, inc, entry_weight, caps, demand_caps = instance
        if (demand_caps <= 0.0).any() and (demand_caps > 0.0).any():
            seen.add("zero_demand")
        if shape == "one_round" and len(inc.entry_link):
            seen.add("one_round")
        if shape == "tie":  # every flow is active and above every level
            weight = np.bincount(inc.entry_link, entry_weight,
                                 minlength=len(caps))
            fill = caps[weight > 0] / weight[weight > 0]
            if (fill == fill.min(initial=np.inf)).sum() >= 2:
                seen.add("tie")

    record()
    assert seen == {"zero_demand", "one_round", "tie"}


def test_single_round_skips_the_freeze_update(monkeypatch):
    """When one round freezes every flow at its demand, ``_maxmin``
    sums the link weights once and never walks a freeze's entries: the
    first link counts are the link CSR's row lengths, and the freeze
    update would feed only a next round."""
    inc = incidence([[0, 1], [1, 2], [0, 2, 3], [3]], 4)
    entry_weight = np.array([1.0, 2.0, 1.0, 0.5, 1.0, 3.0, 2.0, 0.5])
    caps = np.ones(4)
    demand_caps = np.array([0.01, 0.02, 0.03, 0.04])
    calls = {"bincount": 0, "ragged": 0}
    bincount, ragged = np.bincount, fastpath._ragged

    def counted_bincount(*args, **kwargs):
        calls["bincount"] += 1
        return bincount(*args, **kwargs)

    def counted_ragged(*args):
        calls["ragged"] += 1
        return ragged(*args)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    monkeypatch.setattr(fastpath, "_ragged", counted_ragged)
    alloc = fastpath._maxmin(inc, entry_weight, caps, demand_caps)
    assert alloc.tobytes() == demand_caps.tobytes()
    assert calls == {"bincount": 1, "ragged": 0}

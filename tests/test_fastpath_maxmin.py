"""The max-min bottleneck certificate for the flow engine's allocator.

An allocation is max-min fair exactly when every flow is either at its
demand cap or crosses a saturated link on which no flow gets more than
it does, and no link is over capacity.  The pre-array solver stalled
after the first stash pool saturated and left 588-840 of the 882 flows
of tiny stash25 @0.8 with neither; ``_maxmin`` now runs to completion,
and this module holds it to the certificate on drawn instances and on
every fixed-point step of two stash-bound runs.
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

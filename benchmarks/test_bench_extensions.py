"""Extension experiments beyond the paper's figures:

* occupancy census — Table I's idle-buffer claim measured under traffic;
* fat-tree reliability — the Section IV-A claim that the design carries
  to other asymmetric topologies.
"""

import pytest

from benchmarks.conftest import run_once, sweep_rows
from repro.analysis.campaign import rows_by_variant
from repro.experiments.occupancy import run_occupancy_census


@pytest.mark.benchmark(group="extensions")
def test_occupancy_census_confirms_table1_dynamically(benchmark, quick_base):
    rows = run_once(benchmark, run_occupancy_census, quick_base, 0.6)
    by_class = {r.link_class: r for r in rows}
    # the structural claim behind Table I: endpoint ports leave far more
    # of their symmetric buffers idle than transit ports, even at peak
    assert by_class["endpoint"].idle_fraction > 0.7
    assert by_class["endpoint"].idle_fraction > by_class["local"].idle_fraction
    # and nothing ever overflows its buffer
    for r in rows:
        assert r.peak_flits <= r.capacity_flits
    benchmark.extra_info["idle_at_peak"] = {
        r.link_class: round(r.idle_fraction, 3) for r in rows
    }


@pytest.mark.benchmark(group="extensions")
def test_fattree_reliability_tracks_baseline(benchmark, quick_base):
    rows = run_once(
        benchmark, sweep_rows, "fattree", quick_base,
        {"loads": (0.3, 0.6),
         "variants": ("baseline", "stash100", "stash25")},
    )
    # variant -> [(offered, accepted, avg latency)]
    results = {
        variant: [
            (r.offered_load, r.accepted_load, r.avg_latency)
            for _point, r in group
        ]
        for variant, group in rows_by_variant(rows).items()
    }
    base = results["baseline"]
    full = results["stash100"]
    quarter = results["stash25"]
    # full-capacity stashing is performance neutral on the fat-tree too
    for (o1, a1, _), (o2, a2, _) in zip(base, full):
        assert a2 >= a1 * 0.95
    # the capacity restriction is what bites, same as the dragonfly
    assert quarter[-1][1] <= full[-1][1] + 0.01
    benchmark.extra_info["accepted"] = {
        v: [round(a, 3) for _, a, _ in series]
        for v, series in results.items()
    }

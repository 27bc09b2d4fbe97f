"""Figure 5 — reliability stashing under uniform-random traffic:
(a) latency vs offered load, (b) offered vs accepted throughput.

Paper shape: stash 100 %/50 % track the baseline; 25 % saturates early
(at roughly the Little's-law bound, ~60 % of the baseline's saturation).
"""

import pytest

from benchmarks.conftest import run_once, sweep_rows
from repro.analysis.campaign import rows_by_variant
from repro.analysis.metrics import saturation_load

LOADS = (0.2, 0.5, 0.8)


@pytest.mark.benchmark(group="fig5")
def test_fig5_latency_and_throughput(benchmark, quick_base, jobs):
    rows = run_once(
        benchmark, sweep_rows, "fig5", quick_base,
        {"loads": LOADS,
         "variants": ("baseline", "stash100", "stash50", "stash25")},
        jobs=jobs,
    )
    results = {
        variant: [r for _point, r in group]
        for variant, group in rows_by_variant(rows).items()
    }

    def series(variant):
        return [(r.offered_load, r.accepted_load) for r in results[variant]]

    def accepted_at(variant, idx):
        return results[variant][idx].accepted_load

    # (b) below saturation everyone delivers the offered load
    for variant in results:
        offered, accepted = series(variant)[0]
        assert accepted == pytest.approx(offered, rel=0.1), variant

    # full- and half-capacity stashing track the baseline (paper:
    # "nearly identical performance"; we allow 15 % at the extreme point)
    base_hi = accepted_at("baseline", 2)
    assert accepted_at("stash100", 2) >= 0.85 * base_hi
    assert accepted_at("stash50", 2) >= 0.85 * base_hi
    # mid-load: indistinguishable
    assert accepted_at("stash100", 1) == pytest.approx(
        accepted_at("baseline", 1), rel=0.06
    )

    # 25 % capacity saturates early (paper: 78 % vs 90 %)
    assert accepted_at("stash25", 2) < 0.75 * base_hi

    # (a) latency ordering at high load: restricted capacity queues at
    # the source and latency blows up first
    assert results["stash25"][2].avg_latency > results["baseline"][2].avg_latency

    for variant in results:
        benchmark.extra_info[variant] = {
            "accepted": [round(r.accepted_load, 3) for r in results[variant]],
            "avg_latency": [round(r.avg_latency, 1) for r in results[variant]],
        }
    benchmark.extra_info["saturation"] = {
        v: saturation_load(series(v)) for v in results
    }

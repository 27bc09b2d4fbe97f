"""Figure 9 — victim 90th-percentile latency vs aggressor burst size.

Paper shape: victim accepted throughput holds at ~40 % everywhere; the
stashing networks outperform the baseline across all burst sizes; the
baseline's tail worsens as burstiness grows (until ECN's steady state
catches very long bursts).
"""

import pytest

from benchmarks.conftest import run_once, sweep_rows
from repro.analysis.campaign import rows_by_variant

BURSTS = (4, 16, 64)


@pytest.mark.benchmark(group="fig9")
def test_fig9_burst_sweep(benchmark, quick_base, jobs):
    rows = run_once(
        benchmark, sweep_rows, "fig9", quick_base,
        {"bursts_pkts": BURSTS, "variants": ("baseline", "stash100"),
         "victim_rate": 0.4},
        jobs=jobs,
    )
    # variant -> [(burst pkts, victim p90 latency, victim accepted load)]
    results = {
        variant: [
            (point.key[2], r.group("victim").p90, r.accepted_load)
            for point, r in group
        ]
        for variant, group in rows_by_variant(rows).items()
    }

    base = results["baseline"]
    stash = results["stash100"]

    # stashing outperforms (or matches) the baseline wherever the bursts
    # are large enough to create real transients (>= 16 packets/message
    # at this scale; below that the stash network's smaller normal
    # buffers dominate — a documented scale artifact, see EXPERIMENTS.md)
    for (b1, p90_base, _), (b2, p90_stash, _) in zip(base, stash):
        assert b1 == b2
        if b1 >= 16:
            assert p90_stash <= p90_base * 1.05, (b1, p90_base, p90_stash)

    # burstiness hurts the baseline's tail
    assert base[-1][1] > base[0][1]

    for variant, series in results.items():
        benchmark.extra_info[variant] = {
            "bursts": [b for b, _, _ in series],
            "p90": [round(p, 1) for _, p, _ in series],
            "victim_accepted": [round(a, 3) for _, _, a in series],
        }

"""Experiment harness: one module per paper table/figure.

Every experiment that simulates is a sweep family
(``repro.campaign.spec.SWEEPS``): its module exposes a
``<sweep>_entries(base, axes)`` grid builder and a ``format_<sweep>(rows)``
renderer producing the rows/series the paper reports, and runs through
the one sweep path — ``repro.campaign.spec.expand_sweep`` then
``repro.campaign.service.run_points`` — interactively and from campaign
files alike.  The two analytic tables build no network and are plain
functions.  ``python -m repro.experiments <name>`` (or the
``repro-experiments`` console script) drives them from the command line.

Experiment index (see DESIGN.md Section 4):

==========  ==========================================================
table1      Link asymmetry & buffer underutilization (Table I)
table2      DesignForward trace inventory (Table II)
fig5        Reliability stashing: latency & throughput vs offered load
fig6        Application-trace execution time, 6 apps x 4 networks
fig7        Congestion transient: victim latency over time + ICDF
fig8        Stash-buffer utilization during a congestion event
fig9        Victim tail latency vs aggressor burst size
ablation    Internal speedup, stash placement, Little's-law check
occupancy   Measured per-port buffer occupancy (Table I under traffic)
fattree     Reliability stashing on a leaf/spine fat-tree
==========  ==========================================================
"""

from repro.experiments.common import (
    CONGESTION_VARIANTS,
    RELIABILITY_VARIANTS,
    preset_by_name,
)

__all__ = [
    "CONGESTION_VARIANTS",
    "RELIABILITY_VARIANTS",
    "preset_by_name",
]

"""Experiment harness: one module per paper table/figure.

Every module exposes a ``format_*`` pretty-printer producing the same
rows/series the paper reports.  The sweep families (fig5, fig9,
fattree) pair it with a ``<sweep>_entries(base, axes)`` grid builder
and run through the one sweep path — ``repro.campaign.spec.expand_sweep``
then ``repro.campaign.service.run_points`` — interactively and from
campaign files alike; the other modules pair it with a ``run_*``
returning plain data structures.  ``python -m repro.experiments
<name>`` (or the ``repro-experiments`` console script) drives them from
the command line.

Experiment index (see DESIGN.md Section 4):

==========  ==========================================================
table1      Link asymmetry & buffer underutilization (Table I)
table2      DesignForward trace inventory (Table II)
fig5        Reliability stashing: latency & throughput vs offered load
fig6        Application-trace execution time, 6 apps x 4 networks
fig7        Congestion transient: victim latency over time + ICDF
fig8        Stash-buffer utilization during a congestion event
fig9        Victim tail latency vs aggressor burst size
ablation    Internal speedup & stash-placement ablations
==========  ==========================================================
"""

from repro.experiments.common import (
    CONGESTION_VARIANTS,
    RELIABILITY_VARIANTS,
    congestion_network,
    preset_by_name,
    reliability_network,
)

__all__ = [
    "CONGESTION_VARIANTS",
    "RELIABILITY_VARIANTS",
    "congestion_network",
    "preset_by_name",
    "reliability_network",
]

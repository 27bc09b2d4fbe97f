"""Declarative sweep campaigns with a content-hash result cache.

The campaign service (docs/CAMPAIGNS.md) turns a TOML/JSON campaign
file into a grid of :class:`repro.scenario.ScenarioSpec` points
(:func:`expand_sweep` — the expansion the interactive runner shares),
runs them through the ``--jobs`` executor (:func:`run_points`), and
persists every result in a
content-addressed :class:`ResultStore` keyed by
``(spec_hash, engine, result_schema_version)`` — so reruns compute only
missing points, shards merge byte-identically, and a run killed at any
instant resumes from its store.
"""

from repro.campaign.spec import (
    Campaign,
    CampaignError,
    CampaignPoint,
    RESULT_SCHEMA_VERSION,
    SWEEPS,
    expand_campaign,
    expand_sweep,
    load_campaign,
    parse_campaign_text,
    shard_points,
)
from repro.campaign.store import (
    CorruptEntryError,
    MergeConflictError,
    ResultStore,
    merge_stores,
)
from repro.campaign.service import CampaignRunSummary, run_campaign, run_points

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignPoint",
    "CampaignRunSummary",
    "CorruptEntryError",
    "MergeConflictError",
    "RESULT_SCHEMA_VERSION",
    "ResultStore",
    "SWEEPS",
    "expand_campaign",
    "expand_sweep",
    "load_campaign",
    "merge_stores",
    "parse_campaign_text",
    "run_campaign",
    "run_points",
    "shard_points",
]

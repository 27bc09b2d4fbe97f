"""Campaign report consumer: tables and CDFs from a result store.

Reads every point of a :class:`~repro.campaign.spec.Campaign` back out
of a :class:`~repro.campaign.store.ResultStore` and renders the
per-variant view the sweep was run for: per-point rows (offered /
accepted / latency percentiles), a per-variant percentile summary of
the latency distribution across the grid, and an ASCII CDF overlay.

The report is a pure function of (campaign, store contents): rows
follow campaign expansion order, and every number comes from verified
store entries — so report bytes are identical however the store was
produced (serial, ``--jobs N``, sharded-and-merged, or resumed after a
kill), which is exactly the property CI's campaign smoke job diffs.
"""

from __future__ import annotations

from repro.analysis.ascii_chart import multi_series_chart
from repro.campaign.spec import Campaign, CampaignPoint, expand_campaign
from repro.campaign.store import ResultStore
from repro.engine.base import EngineResult

__all__ = [
    "CampaignReportError",
    "Rows",
    "campaign_rows",
    "format_campaign_report",
    "rank_percentile",
    "rows_by_variant",
]

#: ``(point, result)`` pairs in expansion order — what
#: :func:`campaign_rows` reads from a store and
#: :func:`repro.campaign.service.run_points` computes
Rows = list[tuple[CampaignPoint, EngineResult]]


class CampaignReportError(RuntimeError):
    """The store is missing (or serves corrupt) entries for the
    campaign; the message lists the unreadable points."""


def campaign_rows(campaign: Campaign, store: ResultStore) -> Rows:
    """Every campaign point paired with its stored result, in expansion
    order.  Raises :class:`CampaignReportError` naming any point whose
    entry is missing or corrupt (a partial store has no consistent
    report; run the campaign to completion first)."""
    rows: Rows = []
    missing: list[str] = []
    for point in expand_campaign(campaign):
        entry = store.get(point.store_key())
        if entry is None:
            missing.append(
                f"  point {point.index} {point.key!r} "
                f"({point.spec.spec_hash()[:12]}.{point.engine})"
            )
        else:
            rows.append((point, entry.result))
    if missing:
        raise CampaignReportError(
            f"store {store.root} is missing {len(missing)} of "
            f"{len(missing) + len(rows)} entries for campaign "
            f"{campaign.name!r}:\n" + "\n".join(missing)
        )
    return rows


def rows_by_variant(rows: Rows) -> dict[str, Rows]:
    """Group rows by their point's variant (``key[1]``), variants in
    first-seen order and each group in row order — the shape every
    per-figure table and the campaign report print."""
    by_variant: dict[str, Rows] = {}
    for point, result in rows:
        by_variant.setdefault(str(point.key[1]), []).append((point, result))
    return by_variant


def rank_percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list.

    >>> rank_percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.0
    >>> rank_percentile([1.0, 2.0, 3.0, 4.0], 99)
    4.0
    """
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-int(pct) * len(sorted_values) // 100))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _fmt(value: float) -> str:
    return "n/a" if value != value else f"{value:.1f}"


def format_campaign_report(campaign: Campaign, rows: Rows) -> str:
    """Render the campaign's per-variant tables and latency CDF."""
    by_variant = rows_by_variant(rows)

    has_victim = bool(rows) and all(
        any(name == "victim" for name, _stats in result.groups)
        for _point, result in rows
    )

    lines = [
        f"Campaign report — {campaign.name}",
        f"sweep {campaign.sweep} · engine {campaign.engine} · preset "
        f"{campaign.preset} · {len(rows)} points · campaign "
        f"{campaign.campaign_hash()[:12]}",
        "",
        f"{'variant':<10} {'seed':>5} {'x':>8} {'offered':>8} "
        f"{'accepted':>9} {'avg lat':>8} {'p90':>8} {'p99':>8}"
        + (f" {'victim p90':>11}" if has_victim else ""),
    ]
    for variant, group in by_variant.items():
        for point, result in group:
            axis = point.key[2] if len(point.key) > 2 else ""
            row = (
                f"{variant:<10} {point.sweep_seed:>5} {axis!s:>8} "
                f"{result.offered_load:>8.3f} {result.accepted_load:>9.3f} "
                f"{_fmt(result.avg_latency):>8} "
                f"{_fmt(result.p90_latency):>8} "
                f"{_fmt(result.p99_latency):>8}"
            )
            if has_victim:
                row += f" {_fmt(result.group('victim').p90):>11}"
            lines.append(row)
        lines.append("")

    lines.append(
        "per-variant latency percentiles (avg-latency distribution "
        "across grid points)"
    )
    lines.append(
        f"{'variant':<10} {'n':>4} {'min':>8} {'p50':>8} {'p90':>8} "
        f"{'p99':>8} {'max':>8}"
    )
    series = {}
    for variant, group in by_variant.items():
        lats = sorted(
            r.avg_latency for _p, r in group if r.avg_latency == r.avg_latency
        )
        if not lats:
            lines.append(f"{variant:<10} {0:>4} " + " ".join(["     n/a"] * 5))
            continue
        lines.append(
            f"{variant:<10} {len(lats):>4} {lats[0]:>8.1f} "
            f"{rank_percentile(lats, 50):>8.1f} "
            f"{rank_percentile(lats, 90):>8.1f} "
            f"{rank_percentile(lats, 99):>8.1f} {lats[-1]:>8.1f}"
        )
        series[variant] = (
            lats,
            [(i + 1) / len(lats) for i in range(len(lats))],
        )
    if series:
        lines.append("")
        lines.append("avg-latency CDF (x: cycles, y: fraction of points)")
        lines.append(multi_series_chart(series))
    return "\n".join(lines)

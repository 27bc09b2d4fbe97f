"""Campaign command line: ``python -m repro.campaign <cmd> ...``.

Subcommands::

    run FILE --store DIR [--jobs N] [--shard i/N] [--batch N]
    report FILE --store DIR
    merge DEST SOURCE [SOURCE ...]
    show FILE [--store DIR]

``run`` executes (the missing points of) a campaign into a result
store; rerunning is always safe — cached points are verified and
skipped, corrupt entries are recomputed, and a run killed at any
instant resumes from where its store left off.  ``report`` renders the
per-variant tables from the store.  ``merge`` unions shard stores
byte-for-byte.  ``show`` lists the expansion (and cache status with
``--store``).

Stdout carries only deterministic bytes — the run receipt, the report,
the expansion listing — so output files diff cleanly across reruns,
shard layouts, and ``--jobs`` values; progress and timing go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.spec import Campaign, CampaignError, expand_campaign, load_campaign
from repro.campaign.store import MergeConflictError, ResultStore, merge_stores

__all__ = ["main"]


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        i_txt, n_txt = text.split("/", 1)
        i, n = int(i_txt), int(n_txt)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like i/N (got {text!r})"
        ) from None
    if n < 1 or not 0 <= i < n:
        raise argparse.ArgumentTypeError(f"shard {text!r}: need 0 <= i < N")
    return i, n


def _load(path: str) -> Campaign:
    try:
        return load_campaign(path)
    except FileNotFoundError:
        raise SystemExit(f"campaign file not found: {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.campaign.service import run_campaign

    campaign = _load(args.campaign)
    store = ResultStore(args.store)

    def progress(line: str) -> None:
        print(line, file=sys.stderr)

    summary = run_campaign(
        campaign,
        store,
        jobs=args.jobs,
        shard=args.shard,
        batch=args.batch,
        progress=progress,
    )
    print(summary.format())
    print(
        f"[{campaign.name}] compute time {summary.compute_seconds:.1f}s "
        f"across {summary.computed} point(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import (
        CampaignReportError,
        campaign_rows,
        format_campaign_report,
    )

    campaign = _load(args.campaign)
    store = ResultStore(args.store)
    try:
        rows = campaign_rows(campaign, store)
    except CampaignReportError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(format_campaign_report(campaign, rows))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    try:
        copied, identical = merge_stores(args.sources, args.dest)
    except MergeConflictError as exc:
        print(f"merge conflict: {exc}", file=sys.stderr)
        return 1
    except NotADirectoryError as exc:
        print(f"merge source: {exc}", file=sys.stderr)
        return 1
    print(
        f"merged {len(args.sources)} store(s) into {args.dest}: "
        f"{copied} copied, {identical} already identical"
    )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    campaign = _load(args.campaign)
    store = ResultStore(args.store) if args.store else None
    points = expand_campaign(campaign)
    print(
        f"campaign {campaign.name}: sweep {campaign.sweep}, engine "
        f"{campaign.engine}, preset {campaign.preset}, "
        f"{len(points)} point(s), hash {campaign.campaign_hash()[:12]}"
    )
    for point in points:
        status = ""
        if store is not None:
            status = (
                "  [cached]" if store.get(point.store_key()) else "  [missing]"
            )
        print(
            f"  {point.index:>4}  {point.spec.spec_hash()[:12]}."
            f"{point.engine}  {point.key!r}{status}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Declarative sweep campaigns with a content-hash "
        "result cache (docs/CAMPAIGNS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute a campaign's missing points into a store"
    )
    run_p.add_argument("campaign", help="campaign .toml/.json file")
    run_p.add_argument("--store", required=True, help="result store directory")
    run_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per batch (default 1; results identical "
        "for any N)",
    )
    run_p.add_argument(
        "--shard", type=_parse_shard, default=None, metavar="i/N",
        help="run only points with index %% N == i (merge shard stores "
        "with the merge subcommand)",
    )
    run_p.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="admit at most N misses to the executor at a time "
        "(default: all; persistence is per-point either way)",
    )
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser(
        "report", help="render per-variant tables from a completed store"
    )
    report_p.add_argument("campaign", help="campaign .toml/.json file")
    report_p.add_argument("--store", required=True, help="result store directory")
    report_p.set_defaults(func=_cmd_report)

    merge_p = sub.add_parser(
        "merge", help="union shard stores (byte-identity enforced)"
    )
    merge_p.add_argument("dest", help="destination store directory")
    merge_p.add_argument("sources", nargs="+", help="source store directories")
    merge_p.set_defaults(func=_cmd_merge)

    show_p = sub.add_parser(
        "show", help="list a campaign's expanded points (and cache status)"
    )
    show_p.add_argument("campaign", help="campaign .toml/.json file")
    show_p.add_argument("--store", default=None, help="result store directory")
    show_p.set_defaults(func=_cmd_show)

    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    batch = getattr(args, "batch", None)
    if batch is not None and batch < 1:
        parser.error("--batch must be >= 1")
    try:
        return args.func(args)
    except CampaignError as exc:  # from parsing or from expansion
        raise SystemExit(f"invalid campaign {args.campaign}: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

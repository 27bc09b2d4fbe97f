"""Regenerate every committed output that pins the simulator's numbers.

    PYTHONPATH=src python -m tests.regen [--jobs N]

1. Rewrites every golden under ``tests/goldens/`` from
   :data:`tests.test_engine_identity.GOLDEN_RENDERERS` (~1 min).
2. Reruns ``campaigns/fig5_paper_flow.toml`` into a fresh store (24
   paper-preset flow solves, ~160 s of compute and ~850 MiB per
   worker), then replaces ``campaigns/results/fig5_paper_flow/`` and
   its ``.report.txt`` with the new ones.
3. Prints the moved-number table: for each golden, the report and the
   store (points matched on ``meta.key``), every numeric cell that
   changed, old -> new, the largest relative move, and how many store
   keys moved.

A change that moves a number or a store key regenerates with this tool
in the same commit and quotes the table.  Run it twice and the second
run leaves the tree unchanged.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

from repro.analysis.campaign import campaign_rows, format_campaign_report
from repro.campaign import ResultStore, load_campaign, run_campaign
from tests.test_engine_identity import GOLDEN_RENDERERS, GOLDENS

ROOT = Path(__file__).resolve().parent.parent
PAPER_CAMPAIGN = ROOT / "campaigns" / "fig5_paper_flow.toml"
PAPER_STORE = ROOT / "campaigns" / "results" / "fig5_paper_flow"
PAPER_REPORT = PAPER_STORE.with_name(PAPER_STORE.name + ".report.txt")

#: a number standing alone (not the digits of a name such as ``p90``)
_NUMBER = re.compile(
    r"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])"
)

#: ``(where, old, new)`` for one changed cell
Move = tuple[str, str, str]


def text_moves(name: str, old: str, new: str) -> tuple[int, list[Move]]:
    """Compare two renderings line by line: the count of numeric cells
    in ``new`` and every cell or line that differs.  A cell is a number
    standing alone; a line whose text around the numbers changed (or
    that exists on one side only) is one move with the whole lines."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    cells = 0
    moves: list[Move] = []
    for i in range(max(len(old_lines), len(new_lines))):
        a = old_lines[i] if i < len(old_lines) else ""
        b = new_lines[i] if i < len(new_lines) else ""
        a_cells, b_cells = _NUMBER.findall(a), _NUMBER.findall(b)
        cells += len(b_cells)
        where = f"{name}:{i + 1}"
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b) or len(a_cells) != len(b_cells):
            moves.append((where, a, b))
            continue
        moves += [(where, x, y) for x, y in zip(a_cells, b_cells) if x != y]
    return cells, moves


def _leaves(value: object, path: str = "") -> dict[str, object]:
    """The numeric leaves of a stored result, keyed by their path;
    ``[name, value]`` pairs (extras, groups) are keyed by the name."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {path: value}
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = [
            (v[0], v[1]) if isinstance(v, list) and len(v) == 2
            and isinstance(v[0], str) else (str(i), v)
            for i, v in enumerate(value)
        ]
    else:
        return {}
    out: dict[str, object] = {}
    for key, item in items:
        out.update(_leaves(item, f"{path}.{key}" if path else key))
    return out


def read_store(root: Path) -> dict[tuple, tuple[str, dict[str, object]]]:
    """``meta.key`` -> (spec hash, numeric leaves of the result) for
    every entry of the store at ``root`` (empty when there is none)."""
    points = {}
    for path in ResultStore(root).entry_paths():
        body = json.loads(path.read_text())["body"]
        points[tuple(body["meta"]["key"])] = (
            body["spec_hash"], _leaves(body["result"])
        )
    return points


def store_moves(
    old: dict[tuple, tuple[str, dict]], new: dict[tuple, tuple[str, dict]]
) -> tuple[int, list[Move], int]:
    """Numeric cells of ``new``, the cells that moved, and the count of
    points whose key (spec hash) moved; a point on one side only is one
    move."""
    cells = 0
    moves: list[Move] = []
    keys_moved = 0
    for key in sorted(set(old) | set(new), key=repr):
        if key not in old or key not in new:
            side = "new" if key in new else "old"
            moves.append((f"point {key!r}", f"only in the {side} store", ""))
            continue
        (old_hash, a), (new_hash, b) = old[key], new[key]
        keys_moved += old_hash != new_hash
        cells += len(b)
        for leaf in sorted(set(a) | set(b)):
            x, y = a.get(leaf), b.get(leaf)
            if repr(x) != repr(y):
                moves.append((f"point {key!r} {leaf}", repr(x), repr(y)))
    return cells, moves, keys_moved


def _relative(old: str, new: str) -> float | None:
    try:
        x, y = float(old), float(new)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(y - x) / abs(x) if x else math.inf


def format_table(rows: list[tuple[str, int, list[Move]]], keys_moved: int,
                 points: int) -> str:
    """The moved-number table: one row per source, then every move."""
    width = max(len(name) for name, _, _ in rows + [("source", 0, [])])
    lines = [f"{'source':<{width}}  {'cells':>6}  {'moved':>5}  largest rel move"]
    details = []
    for name, cells, moves in rows:
        rel = [r for r in (_relative(x, y) for _, x, y in moves) if r is not None]
        largest = f"{max(rel):.3g}" if rel else "-"
        if len(rel) < len(moves):
            largest += f" (+{len(moves) - len(rel)} text)"
        lines.append(f"{name:<{width}}  {cells:>6}  {len(moves):>5}  {largest}")
        details += [f"  {where}: {x} -> {y}" for where, x, y in moves]
    total = sum(len(m) for _, _, m in rows)
    lines.append(f"{total} cell(s) moved; {keys_moved} of {points} store key(s) moved")
    return "\n".join(lines + details)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.regen",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="process-pool width for the paper campaign")
    args = parser.parse_args(argv)

    rows: list[tuple[str, int, list[Move]]] = []
    for name in sorted(GOLDEN_RENDERERS):
        print(f"rendering tests/goldens/{name}", file=sys.stderr)
        path = GOLDENS / name
        old = path.read_text() if path.exists() else ""
        new = GOLDEN_RENDERERS[name]() + "\n"
        path.write_text(new)
        rows.append((f"tests/goldens/{name}", *text_moves(name, old, new)))

    campaign = load_campaign(str(PAPER_CAMPAIGN))
    old_points = read_store(PAPER_STORE)
    old_report = PAPER_REPORT.read_text() if PAPER_REPORT.exists() else ""
    with tempfile.TemporaryDirectory(prefix="regen-store-") as tmp:
        store = ResultStore(tmp)
        run_campaign(campaign, store, jobs=args.jobs,
                     progress=lambda line: print(line, file=sys.stderr))
        report = format_campaign_report(campaign, campaign_rows(campaign, store)) + "\n"
        new_points = read_store(Path(tmp))
        shutil.rmtree(PAPER_STORE, ignore_errors=True)
        shutil.copytree(tmp, PAPER_STORE)
    PAPER_REPORT.write_text(report)

    rel_report = str(PAPER_REPORT.relative_to(ROOT))
    rows.append((rel_report, *text_moves(PAPER_REPORT.name, old_report, report)))
    cells, moves, keys_moved = store_moves(old_points, new_points)
    rows.append((f"{PAPER_STORE.relative_to(ROOT)}/ ({len(new_points)} points)",
                 cells, moves))
    print(format_table(rows, keys_moved, len(new_points)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

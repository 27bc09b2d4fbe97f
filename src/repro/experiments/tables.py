"""Tables I and II — the two experiments that build no network.

Table I is analytic (link asymmetry -> buffer underutilization); Table II
is the inventory of application traces, reproduced here with the metadata
of our synthetic generators plus their measured op/flit counts.
"""

from __future__ import annotations

from repro.analysis.table1 import (
    buffer_underutilization,
    dragonfly_link_table,
    paper_table1,
)
from repro.engine.config import NetworkConfig
from repro.trace.apps import APP_REGISTRY, build_app

__all__ = [
    "format_table1",
    "format_table2",
    "run_table1",
    "table2_rows",
]


def run_table1(base: NetworkConfig) -> dict:
    paper_rows = paper_table1()
    sim_rows = dragonfly_link_table(base.dragonfly, base.switch)
    return {
        "paper_rows": paper_rows,
        "paper_total": buffer_underutilization(paper_rows),
        "sim_rows": sim_rows,
        "sim_total": buffer_underutilization(sim_rows),
    }


def format_table1(result: dict) -> str:
    lines = [
        "Table I — asymmetry of links in a canonical dragonfly switch",
        "",
        f"{'Link Type':<13} {'Length':>9} {'% Ports':>8} {'Underutilized':>14}",
    ]
    for row in result["paper_rows"]:
        lines.append(
            f"{row.link_type:<13} {row.length:>9} {row.pct_ports:>8.0f} "
            f"{row.underutilized:>13.0%}"
        )
    lines.append(f"weighted total (paper quotes ~72%): {result['paper_total']:.1%}")
    lines.append("")
    lines.append("recomputed for the simulated configuration:")
    for row in result["sim_rows"]:
        lines.append(
            f"{row.link_type:<13} {row.length:>9} {row.pct_ports:>8.1f} "
            f"{row.underutilized:>13.0%}"
        )
    lines.append(f"weighted total: {result['sim_total']:.1%}")
    return "\n".join(lines)


def table2_rows(ranks: int = 42, size_scale: int = 4) -> list[dict]:
    """One row per application trace (deterministic builds: no seed)."""
    rows = []
    for name, app in APP_REGISTRY.items():
        prog = build_app(name, ranks, size_scale=size_scale, iterations=1)
        rows.append({
            "name": name,
            "description": app.description,
            "load_class": app.load_class,
            "ranks": ranks,
            "ops": prog.total_ops,
            "send_flits": prog.total_send_flits,
        })
    return rows


def format_table2(rows: list[dict]) -> str:
    lines = [
        "Table II — application traces (synthetic DesignForward analogues)",
        "",
        f"{'Application':<13} {'class':<10} {'ranks':>6} {'ops':>7} {'flits':>8}  description",
    ]
    for r in rows:
        lines.append(
            f"{r['name']:<13} {r['load_class']:<10} {r['ranks']:>6} "
            f"{r['ops']:>7} {r['send_flits']:>8}  {r['description']}"
        )
    return "\n".join(lines)

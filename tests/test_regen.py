"""The moved-number table of ``python -m tests.regen``: what counts as
a cell, a moved cell and a moved key."""

from __future__ import annotations

from tests.regen import format_table, store_moves, text_moves


def test_text_moves_finds_changed_cells_not_digits_in_names():
    old = "variant p90 stash100\nbase 1.50 nan\n"
    cells, moves = text_moves("g", old, old.replace("1.50", "1.53"))
    assert cells == 2  # 1.50 and nan; p90 and stash100 are names
    assert moves == [("g:2", "1.50", "1.53")]


def test_text_moves_reports_a_changed_line_whole():
    cells, moves = text_moves("g", "a 1\n", "b 1\nc 2\n")
    assert cells == 2
    assert moves == [("g:1", "a 1", "b 1"), ("g:2", "", "c 2")]


def test_store_moves_matches_points_on_their_key():
    old = {(1, "stash25", 0.8): ("aa", {"avg_latency": 790.1, "cycles": 10}),
           (1, "baseline", 0.8): ("bb", {"avg_latency": 848.4, "cycles": 10})}
    new = {(1, "stash25", 0.8): ("cc", {"avg_latency": 790.1, "cycles": 10}),
           (1, "baseline", 0.8): ("bb", {"avg_latency": 850.0, "cycles": 10})}
    cells, moves, keys_moved = store_moves(old, new)
    assert (cells, keys_moved) == (4, 1)
    assert moves == [("point (1, 'baseline', 0.8) avg_latency", "848.4", "850.0")]
    table = format_table([("store", cells, moves)], keys_moved, len(new))
    assert "1 cell(s) moved; 1 of 2 store key(s) moved" in table
    assert "0.00189" in table  # largest relative move, 1.6 / 848.4

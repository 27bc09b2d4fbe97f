"""Layer-attributed benchmark for both engines and the campaign service.

``python -m bench run`` runs five named workloads, each in its own fresh
subprocess, and writes ``bench/out/result.json``; ``python -m bench
compare A.json B.json`` judges two such files against the bounds in
:mod:`bench.metrics`.  ``bench/run.py`` is the one-workload, one-pass
entry that ``BENCHMARK.json`` registers.  See ``bench/README.md``.

Nothing under ``src/`` knows about this package: the traced pass wraps
the layers' public methods from here (:mod:`bench.trace`).
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["BENCH_DIR", "OUT_DIR", "ROOT", "SCHEMA", "require_repro"]

SCHEMA = "repro-bench/2"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: run outputs (result.json, trace-*.json, temp stores); git-ignored
OUT_DIR = BENCH_DIR / "out"


def require_repro() -> None:
    """Put ``src/`` on the import path, or exit non-zero when the
    simulator is not there (a directory holding only the benchmark)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: simulator source not found at {src / 'repro'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

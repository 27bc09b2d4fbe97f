"""The command ``BENCHMARK.json`` registers: one workload, one pass.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it finds the repository from its own location.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    # started as a script, sys.path[0] is bench/ itself: the package
    # has to be importable by name, for its own imports and so that the
    # dispatch-cost specs pickle by reference
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from bench.worker import main

    sys.exit(main())

"""Whole-path benchmark of the repro simulator: four workloads, end-to-end
metrics, and a per-layer time ledger.  See ``bench/README.md``.

Run from the root of a checkout::

    python -m bench --seed 0                       # every workload, report + ledger
    python -m bench --workload seed-sweep --seed 3 --seconds 15 --trace 0

The benchmark runs the package from the checkout's ``src/`` tree, which it
puts on ``sys.path`` here because a bare checkout has nothing installed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("simulate-lib", "seed-sweep", "validate-sweep", "serve-fleet")

if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

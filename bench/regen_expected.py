"""Regenerate the pinned trace digests under ``bench/expected/``.

    PYTHONPATH=src python -m bench.regen_expected [workload ...]

For each batch workload: every item of seed 0's first ``ROUNDS`` rounds (the
reference round included); for ``serve-fleet``: the whole catalogue.  Each
digest is the SHA-256 of the item's plain-text trace from
``run_cached(spec, None)`` -- the runner without cache or service, which
every measured path must reproduce byte for byte.  Rewrite the files only
when traces are meant to change.
"""

from __future__ import annotations

import json
import sys
from typing import List

import bench  # noqa: F401  (puts the checkout's src/ on sys.path)
from bench import WORKLOADS
from bench import worklists as wl
from bench.checks import EXPECTED, sha256
from repro.runner.runner import run_cached

#: Rounds of seed 0 pinned per batch workload: more than a run reaches.
ROUNDS = 12


def items(workload: str) -> List[wl.Item]:
    if workload == "serve-fleet":
        return wl.serve_catalogue()
    return [it for r in range(ROUNDS) for it in wl.round_items(workload, 0, r)]


def main(argv: List[str]) -> int:
    EXPECTED.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        digests = {it.label: sha256(run_cached(it.spec, None).trace_text) for it in items(workload)}
        doc = {
            "workload": workload,
            "seed": 0,
            "rounds": None if workload == "serve-fleet" else ROUNDS,
            "digests": dict(sorted(digests.items())),
        }
        path = EXPECTED / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{path}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

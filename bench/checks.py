"""Output correctness and accuracy, checked untimed after the measurement.

Every trace a workload produces is reduced to the SHA-256 of its plain-text
form, and then:

* every produced digest with a pinned value under
  ``bench/expected/<workload>.json`` must equal it -- the reference round and
  the serve catalogue are pinned, so this holds on every seed
  (``python -m bench.regen_expected`` rewrites the files);
* a fixed sample of 10 seeded items is re-run through
  ``run_cached(spec, None)`` -- no cache, no service -- and must match the
  measured output byte for byte;
* the accuracy items' simulated makespans are compared with a real run of
  the same program and scheduler (another seed).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

from bench import worklists as wl

EXPECTED = Path(__file__).resolve().parent / "expected"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pinned(workload: str) -> Dict[str, str]:
    """Pinned trace digests by item label (empty when none are committed)."""
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text())["digests"] if path.is_file() else {}


def error_pct(sim_makespan: float, real_makespan: float) -> float:
    """Unsigned makespan error of a simulated run against a real one, in %."""
    return abs(sim_makespan - real_makespan) / real_makespan * 100.0


def check_outputs(workload: str, seed: int, produced: Dict[str, str]) -> Tuple[int, List[str]]:
    """Check ``produced`` (label -> digest); returns checks made and mismatches."""
    from repro.runner.runner import run_cached

    mismatches: List[str] = []
    checks = 0
    for label, digest in load_pinned(workload).items():
        if label in produced:
            checks += 1
            if produced[label] != digest:
                mismatches.append(f"{label}: digest differs from bench/expected")
    for it in wl.sample_items(workload, seed):
        checks += 1
        if produced.get(it.label) != sha256(run_cached(it.spec, None).trace_text):
            mismatches.append(f"{it.label}: re-run through run_cached differs")
    return checks, mismatches


def accuracy(workload: str, makespans: Dict[str, float]) -> List[float]:
    """Errors of the accuracy items' measured makespans against real twins."""
    from repro.runner.runner import run_cached

    errors = []
    for it in wl.accuracy_items(workload):
        real = run_cached(wl.real_twin(it.spec), None)
        errors.append(error_pct(makespans[it.label], real.metrics.makespan))
    return errors

"""Seeded work lists: every input the benchmark hands to the program.

A batch workload is a sequence of *rounds*.  Round 0 is the *reference
round*: the same for every seed, its trace digests are pinned under
``bench/expected/`` and its simulated runs are the accuracy pairs, so
correctness and accuracy are checked on identical inputs in every run.
Every later round ``r`` of seed ``s`` is a pure function of ``(s, r)``.
``serve-fleet`` requests a fixed catalogue; the seed draws the traffic.
The program under test only ever receives the
:class:`~repro.runner.spec.RunSpec` values built here (or, for
``simulate-lib``, the programs and models those specs describe), so the
same seed always gives the same inputs.

Round shapes are fixed per workload -- the same programs, schedulers and
item count in every round, only run seeds drawn from the seed -- so
per-round counts (program builds, cache lookups, engine events) repeat
exactly and every round costs about the same.

Every item carries a ``label`` spelling out the fields the benchmark set.
Labels key the pinned digests: they stay stable when ``RunSpec`` grows or
loses unrelated fields.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.experiments.config import experiment_scheduler_spec
from repro.runner.spec import ProgramSpec, RunSpec

__all__ = [
    "CAL_NT",
    "MACHINE",
    "NB",
    "SCHEDULERS",
    "SERVE_SIZE",
    "SIMULATE_LIB_PROGRAMS",
    "Item",
    "accuracy_items",
    "real_twin",
    "round_items",
    "sample_items",
    "serve_catalogue",
    "serve_requests",
    "warm_up_specs",
]

#: The paper's 48-core testbed model; every item runs on it.
MACHINE = "magny_cours_48"
#: Tile order of every generated program.
NB = 200
SCHEDULERS = ("quark", "starpu", "ompss")
ALGORITHMS = ("cholesky", "qr", "lu")
#: Calibration problem size of every simulated batch item (tiles per side).
CAL_NT = 8

#: Programs ``simulate-lib`` prebuilds at setup.
SIMULATE_LIB_PROGRAMS: Tuple[Tuple[str, int], ...] = (("cholesky", 40), ("qr", 24), ("lu", 24))

#: ``seed-sweep``: one program, this many seeds per scheduler per round.
SEED_SWEEP_PROGRAM = ("cholesky", 28)
SEED_SWEEP_SEEDS_PER_ROUND = 3

#: ``validate-sweep``: each algorithm at three sizes, one per scheduler, in
#: a Latin square -- every scheduler meets every size once per round -- so
#: every round costs the same.
VALIDATE_NTS = {
    "cholesky": {"quark": 8, "starpu": 16, "ompss": 24},
    "qr": {"quark": 16, "starpu": 24, "ompss": 8},
    "lu": {"quark": 24, "starpu": 8, "ompss": 16},
}

#: ``serve-fleet`` catalogue: every (algorithm, nt, scheduler) in this range,
#: in two run-seed variants; calibrated on the smallest program.
SERVE_NTS = tuple(range(6, 21))
SERVE_VARIANTS = 2
SERVE_CAL_NT = 6
SERVE_SIZE = len(ALGORITHMS) * len(SERVE_NTS) * len(SCHEDULERS) * SERVE_VARIANTS
#: Zipf exponent of the request popularity over the catalogue.
SERVE_ZIPF_S = 1.1

#: Seed of the reference round and of the serve catalogue.
REFERENCE_SEED = 0
_SEED_RANGE = 1_000_000


@dataclass(frozen=True)
class Item:
    """One unit of work: a spec plus the label its digest is pinned under."""

    label: str
    spec: RunSpec


def _rng(*parts: object) -> random.Random:
    # String seeds hash through SHA-512, so draws are identical on every
    # platform and Python version.
    return random.Random(":".join(str(p) for p in parts))


def _label(spec: RunSpec) -> str:
    p, s = spec.program, spec.scheduler
    label = f"{p.algorithm}.nt{p.nt}.{s.name}.{spec.mode}.s{spec.seed}"
    if spec.mode == "simulated":
        label += f".cal{spec.cal_nt}.{spec.cal_seed}"
    return label


def _spec(algorithm: str, nt: int, scheduler: str, seed: int, mode: str, **cal) -> RunSpec:
    return RunSpec(
        program=ProgramSpec(algorithm, nt, NB),
        scheduler=experiment_scheduler_spec(scheduler),
        machine=MACHINE,
        seed=seed,
        mode=mode,
        **cal,
    )


def _item(spec: RunSpec) -> Item:
    return Item(_label(spec), spec)


def round_items(workload: str, seed: int, r: int) -> List[Item]:
    """Round ``r`` of a batch workload's work list for ``seed``."""
    rng = _rng(workload, seed if r else REFERENCE_SEED, r)
    if workload == "simulate-lib":
        # Simulated specs equivalent to library simulate() calls on models
        # fitted from a real nt=CAL_NT run with calibration seed 0.
        return [
            _item(_spec(alg, nt, sched, rng.randrange(_SEED_RANGE), "simulated",
                        cal_nt=CAL_NT, cal_seed=0))
            for alg, nt in SIMULATE_LIB_PROGRAMS
            for sched in SCHEDULERS
        ]
    if workload == "seed-sweep":
        alg, nt = SEED_SWEEP_PROGRAM
        return [
            _item(_spec(alg, nt, sched, rng.randrange(_SEED_RANGE), "simulated",
                        cal_nt=CAL_NT, cal_seed=0))
            for sched in SCHEDULERS
            for _ in range(SEED_SWEEP_SEEDS_PER_ROUND)
        ]
    if workload == "validate-sweep":
        # The `repro sweep --mode validate` pairing: real seed s*1000+nt,
        # simulated seed s*1000+nt+1, calibration seed s.
        items: List[Item] = []
        for alg in ALGORITHMS:
            for sched, nt in VALIDATE_NTS[alg].items():
                s = rng.randrange(1000)
                items.append(_item(_spec(alg, nt, sched, s * 1000 + nt, "real")))
                items.append(_item(_spec(alg, nt, sched, s * 1000 + nt + 1, "simulated",
                                         cal_nt=CAL_NT, cal_seed=s)))
        return items
    raise KeyError(f"{workload!r} is not a batch workload")


def warm_up_specs() -> List[RunSpec]:
    """A tiny real + simulated pair the batch workloads run during set-up."""
    return [
        _spec("cholesky", 4, "quark", 0, "real"),
        _spec("cholesky", 4, "quark", 1, "simulated", cal_nt=4, cal_seed=0),
    ]


def sample_items(workload: str, seed: int) -> List[Item]:
    """The fixed sample of 10 items re-run untimed to check outputs.

    Batch samples come from rounds 1 and 2 -- seeded, and executed by every
    run; the serve sample is ten catalogue entries spread over popularity
    ranks.
    """
    if workload == "serve-fleet":
        catalogue = serve_catalogue()
        step = len(catalogue) // 10
        return [catalogue[i * step] for i in range(10)]
    pool = round_items(workload, seed, 1) + round_items(workload, seed, 2)
    step = len(pool) / 10
    return [pool[int(i * step)] for i in range(10)]


def accuracy_items(workload: str) -> List[Item]:
    """Simulated items whose makespan error against a real twin is measured.

    The same for every seed, so the accuracy metrics repeat exactly while
    the simulator is unchanged.  ``validate-sweep`` pairs its reference
    round's own real and simulated runs instead.
    """
    if workload == "serve-fleet":
        return sample_items(workload, REFERENCE_SEED)
    return [it for it in round_items(workload, REFERENCE_SEED, 0) if it.spec.mode == "simulated"]


def real_twin(spec: RunSpec) -> RunSpec:
    """The real run an accuracy pair compares a simulated spec against.

    A different seed, as in ``repro sweep --mode validate``: agreement of
    distinct stochastic realisations is the paper's claim under test.
    """
    return replace(spec, mode="real", seed=spec.seed + 1, cal_nt=None, cal_seed=0)


def serve_catalogue() -> List[Item]:
    """The specs ``serve-fleet`` requests, most popular first.

    Fixed for every seed -- a service's catalogue does not change with its
    traffic -- so every digest it serves is pinned.
    """
    shapes = [
        (alg, nt, sched, v)
        for alg in ALGORITHMS
        for nt in SERVE_NTS
        for sched in SCHEDULERS
        for v in range(SERVE_VARIANTS)
    ]
    rng = _rng("serve-fleet", REFERENCE_SEED)
    rng.shuffle(shapes)
    return [
        _item(_spec(alg, nt, sched, rng.randrange(_SEED_RANGE), "simulated",
                    cal_nt=SERVE_CAL_NT, cal_seed=0))
        for alg, nt, sched, _v in shapes
    ]


def serve_requests(seed: int, n: int, *, stream: str, ranks: int = SERVE_SIZE) -> List[int]:
    """``n`` catalogue indices in Zipf(SERVE_ZIPF_S) proportion over the first ``ranks``.

    The requests are a systematic sample -- the midpoints of ``n`` equal
    slices of the popularity CDF -- so every rank appears in its Zipf share
    up to rounding, whatever the seed; the seed decides their order.
    Independent draws would let the seed decide the size mix too, and with
    it the latency percentiles and the rates.
    """
    weights = [k ** -SERVE_ZIPF_S for k in range(1, ranks + 1)]
    total = sum(weights)
    cum: List[float] = []
    running = 0.0
    for w in weights:
        running += w
        cum.append(running / total)
    picks = [min(ranks - 1, bisect_left(cum, (j + 0.5) / n)) for j in range(n)]
    _rng("serve-fleet", seed, stream).shuffle(picks)
    return picks

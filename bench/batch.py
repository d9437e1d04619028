"""One batch workload in its own process: set up, run timed rounds, check.

Protocol with the parent (``python -m bench``): the process imports and
prepares everything a first call needs, prints ``ready`` and waits for a
line on stdin.  ``go`` starts the measurement, whose JSON document is
written to the ``result`` path; anything else (or EOF) exits, which is how
the parent takes extra samples of set-up time::

    python -m bench.batch '{"workload": "seed-sweep", "seed": 0, "seconds": 15,
                            "trace": false, "tmp": "...", "result": "..."}'
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

import bench  # noqa: F401  (puts the checkout's src/ on sys.path)
from bench import worklists as wl
from bench.checks import accuracy, check_outputs, error_pct, sha256
from bench.ledger import SpanRecorder, batch_ledger, traced
from repro.core.simulator import run_real, simulate
from repro.experiments.config import experiment_scheduler_spec
from repro.kernels.timing import KernelModelSet
from repro.machine import collect_samples, get_machine
from repro.runner.cache import ResultCache
from repro.runner.runner import sweep
from repro.runner.spec import ProgramSpec
from repro.trace.textio import dumps_trace

#: Rounds every run executes, whatever ``--seconds`` says: the reference
#: round and the two seeded rounds the output sample comes from.
MIN_ROUNDS = 3


@dataclass
class Output:
    """What one item produced: its trace digest and the numbers metrics use."""

    label: str
    digest: str
    tasks: int
    makespan: float
    simulated: bool


@dataclass
class Round:
    wall_s: float
    latencies_s: List[float]
    outputs: List[Output]

    def summary(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "items": len(self.outputs),
            "tasks": sum(o.tasks for o in self.outputs),
            "sim_makespan_s": sum(o.makespan for o in self.outputs if o.simulated),
            "latencies_s": self.latencies_s,
        }


class SimulateLib:
    """Library ``simulate()`` on programs and models prepared at set-up.

    Models are fitted per (algorithm, scheduler) from one real run of the
    nt=CAL_NT program with calibration seed 0 -- the recipe a simulated
    ``RunSpec`` with ``cal_nt=CAL_NT, cal_seed=0`` follows, so the check
    phase can re-run items through the runner and expect identical bytes.
    """

    def __init__(self, tmp: Path) -> None:
        machine = get_machine(wl.MACHINE)
        self.warmup_penalty = machine.warmup_penalty
        self.programs = {
            (alg, nt): ProgramSpec(alg, nt, wl.NB).build() for alg, nt in wl.SIMULATE_LIB_PROGRAMS
        }
        self.models: Dict[Tuple[str, str], KernelModelSet] = {}
        for alg, _nt in wl.SIMULATE_LIB_PROGRAMS:
            cal_program = ProgramSpec(alg, wl.CAL_NT, wl.NB).build()
            for sched in wl.SCHEDULERS:
                spec = experiment_scheduler_spec(sched)
                cal = run_real(cal_program, spec.build(), machine, seed=0)
                models = KernelModelSet.from_samples(collect_samples(cal))
                self.models[(alg, sched)] = models
                # First calls pay one-off costs (lazy imports, sampler set-up)
                # that belong to set-up, not to the first timed round.
                simulate(cal_program, spec.build(), models, warmup_penalty=self.warmup_penalty)

    def run_round(self, items: List[wl.Item]) -> Round:
        traces = []
        latencies = []
        t_round = time.perf_counter()
        for it in items:
            spec = it.spec
            program = self.programs[(spec.program.algorithm, spec.program.nt)]
            models = self.models[(spec.program.algorithm, spec.scheduler.name)]
            t0 = time.perf_counter()
            traces.append(
                simulate(program, spec.scheduler.build(), models,
                         seed=spec.seed, warmup_penalty=self.warmup_penalty)
            )
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_round
        outputs = [
            Output(it.label, sha256(dumps_trace(tr)), len(tr), tr.makespan, True)
            for it, tr in zip(items, traces)
        ]
        return Round(wall, latencies, outputs)


class Sweep:
    """``runner.sweep(jobs=1)`` into a fresh on-disk cache per round."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        # One tiny real + simulated pair through the same path, so one-off
        # costs (lazy imports, first cache write) land in set-up.
        cache_dir = tempfile.mkdtemp(prefix="warm-", dir=tmp)
        try:
            sweep(wl.warm_up_specs(), jobs=1, cache=ResultCache(cache_dir))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def run_round(self, items: List[wl.Item]) -> Round:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        try:
            cache = ResultCache(cache_dir)
            t0 = time.perf_counter()
            result = sweep([it.spec for it in items], jobs=1, cache=cache)
            wall = time.perf_counter() - t0
            outputs = [
                Output(it.label, sha256(r.trace_dump()), r.metrics.tasks_executed,
                       r.metrics.makespan, it.spec.mode == "simulated")
                for it, r in zip(items, result.results)
            ]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Round(wall, [r.wall_s for r in result.results], outputs)


def make_workload(name: str, tmp: Path):
    if name == "simulate-lib":
        return SimulateLib(tmp)
    if name in ("seed-sweep", "validate-sweep"):
        return Sweep(tmp)
    raise KeyError(f"unknown batch workload {name!r}")


def measure(workload: str, runner: Any, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Timed rounds until ``seconds`` pass, then the untimed checks.

    With ``trace`` every round runs twice on the same items, untraced and
    then traced, so the ledger's overhead compares like with like and the
    two passes' digests must agree.
    """
    rounds: List[Round] = []
    traced_rounds: List[Round] = []
    recorder = SpanRecorder()
    missing: List[str] = []
    produced: Dict[str, Output] = {}
    accuracy_pct: List[float] = []
    problems: List[str] = []
    attempted = failed = wrong = 0
    t_start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        items = wl.round_items(workload, seed, r)
        passes = (False, True) if trace else (False,)
        for tracing in passes:
            attempted += len(items)
            recorder.trace_id = f"{workload}/r{r}"
            try:
                if tracing:
                    with traced(recorder) as missing:
                        rnd = runner.run_round(items)
                else:
                    rnd = runner.run_round(items)
            except Exception as exc:  # a failing round is counted, the run goes on
                failed += len(items)
                problems.append(f"round {r}{' (traced)' if tracing else ''}: "
                                f"{type(exc).__name__}: {exc}")
                break
            if tracing:
                traced_rounds.append(rnd)
                for a, b in zip(rounds[-1].outputs, rnd.outputs):
                    if a.digest != b.digest:
                        wrong += 1
                        problems.append(f"{a.label}: traced pass digest differs from untraced")
            else:
                rounds.append(rnd)
                produced.update((o.label, o) for o in rnd.outputs)
                if r == 0 and workload == "validate-sweep":
                    # Reference-round items alternate real, simulated.
                    accuracy_pct = [
                        error_pct(sim.makespan, real.makespan)
                        for real, sim in zip(rnd.outputs[0::2], rnd.outputs[1::2])
                    ]
        r += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, mismatches = check_outputs(
        workload, seed, {label: o.digest for label, o in produced.items()}
    )
    wrong += len(mismatches)
    problems += mismatches
    if workload != "validate-sweep":
        try:
            accuracy_pct = accuracy(
                workload, {label: o.makespan for label, o in produced.items()}
            )
        except KeyError as exc:
            wrong += 1
            problems.append(f"accuracy item {exc} was never produced")
    doc: Dict[str, Any] = {
        "rounds": [x.summary() for x in rounds],
        "attempted": attempted + checks,
        "failed": failed + wrong,
        "problems": problems,
        "accuracy_pct": accuracy_pct,
        "peak_rss_mb": rss_mb,
    }
    if trace:
        items = sum(len(x.outputs) for x in traced_rounds)
        traced_wall = sum(x.wall_s for x in traced_rounds)
        untraced_wall = sum(x.wall_s for x in rounds[: len(traced_rounds)])
        doc["ledger"] = batch_ledger(
            recorder.spans, items=items, traced_wall_s=traced_wall, untraced_wall_s=untraced_wall
        )
        doc["ledger_runs"] = items
        doc["traced_wall_s"] = traced_wall
        doc["missing_bindings"] = missing
        doc["engine_paths"] = dict(
            Counter(s.attrs["engine"] for s in recorder.spans if "engine" in s.attrs)
        )
        doc["spans"] = [s.to_dict() for s in recorder.spans]
    return doc


def main(argv: List[str]) -> int:
    cfg = json.loads(argv[0])
    tmp = Path(cfg["tmp"])
    tmp.mkdir(parents=True, exist_ok=True)
    runner = make_workload(cfg["workload"], tmp)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    doc = measure(cfg["workload"], runner, cfg["seed"], cfg["seconds"], cfg["trace"])
    Path(cfg["result"]).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""``python -m bench``: run the workloads, check outputs, print the metrics.

With ``--workload`` one workload runs, untraced (``--trace 0``: the
end-to-end metrics) or traced (``--trace 1``: the per-layer ledger), and the
last line of stdout is the JSON result.  Without it every workload runs
untraced and then traced, and the whole report also goes to
``bench/out/report.json``.
The exit status is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench import OUT, ROOT, SRC, WORKLOADS

#: Seconds one run measures by default (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 15
#: Start-ups per untraced batch run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Environment that would select a non-default engine: stripped so the
#: code's own defaults are what gets measured.
STRIPPED_ENV = ("REPRO_ENGINE_BACKEND", "REPRO_ENGINE_MODE", "REPRO_CACHE", "REPRO_ARTIFACTS")
WORKER_READY_TIMEOUT_S = 60.0
WORKER_RUN_TIMEOUT_S = 150.0


def clean_env(tmp: Path) -> Dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)  # keep every temporary file inside the checkout
    return env


def build_core(env: Dict[str, str]) -> str:
    """Build the optional compiled event loop, outside any timed region."""
    tool = ROOT / "tools" / "build_array_core.py"
    source = SRC / "repro" / "schedulers" / "_array_core.c"
    lib = source.with_name("lib_array_core.so")
    if not (tool.is_file() and source.is_file()):
        return "no compiled core in this tree"
    if lib.is_file() and lib.stat().st_mtime >= source.stat().st_mtime:
        return "already built"
    proc = subprocess.run(
        [sys.executable, str(tool), "--if-possible"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    return "built" if proc.returncode == 0 else f"build failed (exit {proc.returncode})"


def environment(core_build: str) -> Dict[str, Any]:
    import platform

    import numpy

    import repro

    try:
        from repro.schedulers.array_engine import USING_COMPILED_CORE as compiled
    except ImportError:
        compiled = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "platform": platform.platform(),
        "compiled_core": compiled,
        "core_build": core_build,
        "stripped_env": list(STRIPPED_ENV),
    }


def _stop(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


def run_batch(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
              env: Dict[str, str]) -> Tuple[Dict[str, Any], List[float]]:
    """Start the workload's process ``SETUP_SAMPLES`` times; measure in the last."""
    from bench.serve import read_line

    result = tmp / "result.json"
    cfg = json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                      "tmp": str(tmp / "work"), "result": str(result)})
    setups: List[float] = []
    n = 1 if trace else SETUP_SAMPLES
    log_path = tmp / "worker.log"
    with open(log_path, "w") as log:
        for k in range(n):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bench.batch", cfg], cwd=ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
            )
            try:
                try:
                    line = read_line(proc, t0 + WORKER_READY_TIMEOUT_S)
                except RuntimeError:
                    line = ""
                if line != "ready":
                    tail = log_path.read_text().strip().splitlines()[-5:]
                    raise RuntimeError("worker failed during set-up: " + " | ".join(tail))
                setups.append(time.perf_counter() - t0)
                last = k == n - 1
                proc.stdin.write("go\n" if last else "quit\n")
                proc.stdin.close()
                _stop(proc, WORKER_RUN_TIMEOUT_S if last else 30.0)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
                proc.stdout.close()
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result.read_text()), setups


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload; returns metrics plus what the report prints."""
    from bench import report
    from bench.serve import run_serve

    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
    try:
        env = clean_env(tmp)
        if workload == "serve-fleet":
            doc = run_serve(seed, seconds, trace, tmp, env)
            setups = doc["setups_s"]
        else:
            doc, setups = run_batch(workload, seed, seconds, trace, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "problems": doc["problems"],
    }
    if trace:
        out["ledger"] = doc["ledger"]
        out["ledger_runs"] = doc["ledger_runs"]
        out["traced_wall_s"] = doc["traced_wall_s"]
        out["engine_paths"] = doc.get("engine_paths", {})
        out["missing_bindings"] = doc.get("missing_bindings", [])
        spans_path = OUT / f"{workload}.spans.json"
        spans_path.write_text(json.dumps({"workload": workload, "seed": seed,
                                          "spans": doc["spans"]}) + "\n")
        out["spans_path"] = str(spans_path.relative_to(ROOT))
    else:
        if workload == "serve-fleet":
            out["e2e"] = report.serve_e2e(doc)
        else:
            out["e2e"] = report.batch_e2e(doc, setups)
        out["samples"] = report.samples(workload, doc, len(setups))
        if workload == "serve-fleet":
            out["driver_max_lag_s"] = doc["max_lag_s"]
    return out


def _ledger_notes(run: Dict[str, Any]) -> List[str]:
    notes = ["trace_overhead_pct compares traced with untraced runs of the same items"]
    if run["engine_paths"]:
        paths = ", ".join(f"{k} x{v}" for k, v in sorted(run["engine_paths"].items()))
        notes.append(f"engine path taken: {paths}")
    if run["missing_bindings"]:
        notes.append(f"bindings not found (layer reads 0): {', '.join(run['missing_bindings'])}")
    notes.append(f"spans: {run['spans_path']}")
    return notes


def print_run(run: Dict[str, Any]) -> None:
    from bench import report

    if run["trace"]:
        print(report.format_ledger(run["workload"], run["ledger"], run["ledger_runs"],
                                   run["traced_wall_s"], _ledger_notes(run)))
    else:
        print(report.format_e2e(run["workload"], run["e2e"], run["samples"],
                                run["attempted"], run["failed"]))
        if "driver_max_lag_s" in run:
            print(f"  driver.max_lag_s {run['driver_max_lag_s']:.4f} s (open loop)")
    for problem in run["problems"][:20]:
        print(f"  FAILED: {problem}")
    for name in report.not_finite(run["ledger"] if run["trace"] else run["e2e"]):
        print(f"  FAILED: {name} is not a finite number")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0, help="seed of every work list")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer ledger")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    for key in STRIPPED_ENV:
        os.environ.pop(key, None)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    tempfile.tempdir = None
    core = build_core(clean_env(OUT / "tmp"))
    from bench import report

    env_info = environment(core)
    print("environment: " + json.dumps(env_info, sort_keys=True))

    if args.workload is not None:
        trace = bool(args.trace)
        try:
            run = run_workload(args.workload, args.seed, args.seconds, trace)
        except RuntimeError as exc:  # the program could not even be measured
            print(f"bench: {args.workload}: {exc}", file=sys.stderr)
            return 1
        print_run(run)
        metrics = run["ledger"] if trace else run["e2e"]
        correct = run["failed"] == 0 and not report.not_finite(metrics)
        print(json.dumps(report.contract_line(correct, run["attempted"], run["failed"], metrics)))
        return 0 if correct else 1

    doc: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                           "environment": env_info, "workloads": {}}
    correct = True
    for workload in WORKLOADS:
        runs = {}
        for trace in (False, True):
            run = run_workload(workload, args.seed, args.seconds, trace)
            print_run(run)
            runs["ledger" if trace else "e2e"] = run
            metrics = run["ledger"] if trace else run["e2e"]
            correct = correct and run["failed"] == 0 and not report.not_finite(metrics)
        doc["workloads"][workload] = {
            "e2e": runs["e2e"]["e2e"],
            "samples": runs["e2e"]["samples"],
            "error_rate": runs["e2e"]["failed"] / runs["e2e"]["attempted"],
            "ledger": runs["ledger"]["ledger"],
            "ledger_runs": runs["ledger"]["ledger_runs"],
            "traced_wall_s": runs["ledger"]["traced_wall_s"],
            "engine_paths": runs["ledger"]["engine_paths"],
            "attempted": runs["e2e"]["attempted"] + runs["ledger"]["attempted"],
            "failed": runs["e2e"]["failed"] + runs["ledger"]["failed"],
        }
    out = OUT / "report.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"report: {out.relative_to(ROOT)}")
    print("all outputs correct" if correct else "SOME OUTPUTS WERE WRONG")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

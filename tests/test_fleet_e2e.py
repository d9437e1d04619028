"""End-to-end fleet tests: real processes, real runs, real failures.

The fleet as users run it: ``repro fleet`` spawned as a subprocess, its
shard daemons spawned by *it*, and everything reached over real sockets.
These cover the acceptance path of the fleet feature: readiness
announcement, byte-identity with direct execution, fleet-wide
single-flight, shard death under load healing with zero failed requests,
and whole-fleet SIGTERM drain (exit 0).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.runner.runner import run_cached
from repro.runner.spec import ProgramSpec, RunSpec, SchedulerSpec
from repro.service import RunRequest, ServiceClient, run_loadgen

from .test_service import make_spec

pytestmark = pytest.mark.slow

READY_RE = re.compile(r"^listening on ([\w.\-]+):(\d+)$")


def start_fleet(tmp_path: Path, *extra: str):
    """Spawn ``repro fleet`` and parse the stdout readiness line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--port", "0",
         "--cache-dir", str(tmp_path / "cache"),
         "--state-file", str(tmp_path / "fleet.json"),
         "--log-dir", str(tmp_path / "logs"),
         "--workers", "2", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, cwd=str(tmp_path),
    )
    line = proc.stdout.readline().strip()
    match = READY_RE.match(line)
    assert match, f"fleet never announced readiness on stdout: {line!r}"
    return proc, match.group(1), int(match.group(2))


def stop_fleet(proc: subprocess.Popen) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return proc.returncode


@pytest.fixture
def fleet3(tmp_path):
    proc, host, port = start_fleet(tmp_path, "--shards", "3")
    try:
        yield proc, host, port, tmp_path
    finally:
        try:
            stop_fleet(proc)
        finally:
            proc.stdout.close()


class TestFleetEndToEnd:
    def test_serve_announces_readiness_on_stdout(self, tmp_path):
        """``repro serve --port 0`` prints the machine-parseable line."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--no-cache", "--quiet"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, cwd=str(tmp_path),
        )
        try:
            line = proc.stdout.readline().strip()
            match = READY_RE.match(line)
            assert match, f"serve readiness line malformed: {line!r}"
            client = ServiceClient(match.group(1), int(match.group(2)))
            assert client.health()["ok"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()

    def test_results_match_direct_execution_and_drain_exits_zero(self, fleet3):
        proc, host, port, tmp_path = fleet3
        client = ServiceClient(host, port)

        # topology document
        state = json.loads((tmp_path / "fleet.json").read_text())
        assert state["schema"] == "repro.fleet/v1"
        assert len(state["shards"]) == 3
        assert state["router"]["port"] == port

        # a small grid through the router: byte-identical to direct runs
        specs = [make_spec(seed=s, nt=3) for s in range(6)]
        for spec in specs:
            doc = client.run(spec)
            assert doc["ok"], doc
            assert doc["trace"] == run_cached(spec, None).trace_dump()

        # the sweep spread across shards, every request accounted for
        stats = client.stats()
        routed = {sid: s["routed"] for sid, s in stats["per_shard"].items()}
        assert sum(routed.values()) == 6
        assert sum(1 for v in routed.values() if v > 0) >= 2
        assert stats["totals"]["failures"] == 0

        # identical spec again: served from the owning shard's cache
        repeat = client.run(specs[0])
        assert repeat["ok"] and repeat["cached"]
        assert client.stats()["totals"]["cache_hits"] >= 1

        assert stop_fleet(proc) == 0

    def test_identical_inflight_specs_coalesce_through_the_router(self, fleet3):
        proc, host, port, _ = fleet3
        client = ServiceClient(host, port)
        big = RunSpec(
            program=ProgramSpec("cholesky", 48, 64),  # ~0.6 s of real work
            scheduler=SchedulerSpec("quark", n_workers=4),
            machine="uniform_4",
            seed=0,
        )
        # All four go out together.  A request builds the whole program for
        # its cache key before it can join a flight, and on a busy shard
        # that takes about as long as the run, so one sent after the flight
        # started can arrive after it ended.
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(client.run, big) for _ in range(4)]
            docs = [f.result(timeout=120) for f in futures]
        assert all(doc["ok"] for doc in docs)
        assert sum(doc["coalesced"] for doc in docs) == 3
        # one flight executed, on exactly one shard
        stats = client.stats()
        assert stats["totals"]["executed"] == 1
        assert stats["totals"]["coalesced"] == 3

    def test_shard_death_under_load_heals_with_zero_failures(self, fleet3):
        proc, host, port, tmp_path = fleet3
        state = json.loads((tmp_path / "fleet.json").read_text())
        victim_pid = state["shards"][0]["pid"]
        docs = [RunRequest(spec=make_spec(seed=s, nt=3)).to_document() for s in range(8)]

        killed = threading.Event()

        def kill_later() -> None:
            time.sleep(1.0)
            os.kill(victim_pid, signal.SIGKILL)
            killed.set()

        killer = threading.Thread(target=kill_later)
        killer.start()
        report = run_loadgen(
            host, port, docs, loop="closed", concurrency=4, duration_s=4.0,
            max_retries=8,
        )
        killer.join()
        assert killed.is_set()
        assert report["requests"] > 0
        assert report["failed"] == 0, report["status_counts"]
        # the router noticed: mark-down recorded, traffic rebalanced
        stats = ServiceClient(host, port).stats()
        assert stats["router"]["marked_down"] >= 1
        assert stats["per_shard"]["0"]["up"] is False
        # fleet still drains cleanly with a dead shard
        assert stop_fleet(proc) == 0

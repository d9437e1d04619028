"""``serve-fleet``: a one-shard ``repro fleet`` under an open, then a closed loop.

The fleet runs as a subprocess (router process plus one shard process) on a
fresh cache.  This module is the load driver and the fleet's keeper.  A
measured phase has three parts:

* **warm-up** (untimed) -- the ``WARM_RANKS`` most popular catalogue entries
  are requested once, so the measurement sees the read-heavy cache of a
  running service rather than a cold start that a short run never leaves;
* **open loop** -- Zipf draws over the whole catalogue, request ``i`` due
  at ``t0 + i / RATE``.  Latency is timed from the due time, not from the
  send: with both connections busy a due request waits, and that wait is
  part of its latency, so a stall shows in every request it delays
  (``repro loadgen`` times from the send and would hide it).
  ``driver.max_lag_s`` reports how late the load driver sent anything;
* **closed loop** -- two connections send back to back, drawing over the
  warmed entries only, so completions per second is the capacity of the
  read path (router, shard, cache hit, JSON).

Every non-200 response, transport error and wrong-digest trace counts as a
failed request; nothing is retried.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench import worklists as wl
from bench.checks import accuracy, check_outputs, sha256
from bench.ledger import service_ledger
from bench.report import capacity
from repro.obs.telemetry import TRACE_HEADER, new_trace_id, parse_exposition
from repro.service.client import http_json_request, http_text_request
from repro.service.core import ServiceError

__all__ = ["CONNECTIONS", "Fleet", "Response", "drive", "run_serve"]

#: Connections (concurrent requests) the load driver keeps: one per core of the
#: two-core machines the benchmark is sized for.
CONNECTIONS = 2
#: Open-loop arrival rate (requests/s), about half the fleet's capacity on
#: such a machine, and the share of a run it lasts; the rest of the run is
#: the closed loop.
RATE = 12.0
OPEN_SHARE = 2 / 3
#: Catalogue ranks cached before measuring (about 80 % of the Zipf mass).
WARM_RANKS = 60
#: Requests per closed-loop block, and the blocks every run sends.
CLOSED_BLOCK = 30
MIN_BLOCKS = 3
#: Fleet start-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Seconds a request may take before it counts as a transport failure.
REQUEST_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Response:
    """One request as the load driver saw it (times on ``time.perf_counter``)."""

    index: int
    due: float
    sent: float
    done: float
    status: int  # HTTP status; 0 for a transport error
    digest: Optional[str] = None
    cached: bool = False
    coalesced: bool = False
    tasks: int = 0
    makespan: float = 0.0
    spans: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.digest is not None


def post_run(
    host: str, port: int, doc: Dict[str, Any], *, traced: bool
) -> Tuple[int, Optional[Dict[str, Any]]]:
    """One ``POST /v1/run`` over a fresh connection; ``(0, None)`` on transport failure."""
    headers = {TRACE_HEADER: new_trace_id()} if traced else None
    try:
        return http_json_request(
            host, port, "POST", "/v1/run", doc, timeout_s=REQUEST_TIMEOUT_S, headers=headers
        )
    except (OSError, ServiceError):  # no connection, a reset, or a non-JSON body
        return 0, None


def _response(index: int, due: float, sent: float, status: int,
              out: Optional[Dict[str, Any]]) -> Response:
    r = Response(index, due, sent, time.perf_counter(), status)
    ok = status == 200 and isinstance(out, dict) and out.get("ok")
    if ok and isinstance(out.get("trace"), str):
        metrics = out.get("metrics") or {}
        r.digest = sha256(out["trace"])
        r.cached = bool(out.get("cached"))
        r.coalesced = bool(out.get("coalesced"))
        r.tasks = int(metrics.get("tasks_executed", 0))
        r.makespan = float(metrics.get("makespan", 0.0))
        r.spans = out.get("spans")
    return r


Send = Callable[[int], Tuple[int, Optional[Dict[str, Any]]]]


def drive(send: Send, indices: Sequence[int], *, rate: Optional[float] = None,
          seconds: Optional[float] = None,
          connections: int = CONNECTIONS) -> Tuple[List[Response], float]:
    """Send ``indices`` in order over ``connections`` workers.

    With ``rate`` request ``i`` is due at ``t0 + i / rate`` (open loop);
    workers take requests in due order, so a request that finds every
    connection busy waits in line, as behind a stalled server.  Without it
    requests go back to back (closed loop), for at most ``seconds``.
    Returns the responses in send order and the wall time until the last one.
    """
    lock = threading.Lock()
    cursor = [0]
    results: List[Response] = []
    t0 = time.perf_counter() + (0.05 if rate else 0.0)
    t_end = t0 + seconds if seconds is not None else float("inf")

    def worker() -> None:
        while time.perf_counter() < t_end:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(indices):
                return
            due = t0 + i / rate if rate else time.perf_counter()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, out = send(indices[i])
            r = _response(indices[i], due, sent, status, out)
            with lock:
                results.append(r)

    threads = [
        threading.Thread(target=worker, name=f"bench-driver-{k}") for k in range(connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    results.sort(key=lambda r: r.sent)
    return results, max((r.done for r in results), default=t0) - t0


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """The child's next stdout line, stripped; raises once ``deadline`` passes."""
    while True:
        left = deadline - time.perf_counter()
        if left <= 0 or proc.poll() is not None:
            raise RuntimeError(f"process {proc.args[:4]} did not report in time")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            return proc.stdout.readline().strip()


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Fleet:
    """A ``repro fleet --shards 1 --port 0`` subprocess on its own cache."""

    def __init__(self, workdir: Path, env: Dict[str, str]) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.state_file = workdir / "fleet.json"
        self._log = open(workdir / "fleet.log", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--shards", "1", "--port", "0",
             "--cache-dir", str(workdir / "cache"), "--state-file", str(self.state_file)],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env,
            start_new_session=True,
        )
        try:
            self.host, self.port = self._await_ready(t0 + READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawn until the router answered ``/v1/health`` with 200.
        self.setup_s = time.perf_counter() - t0

    def _await_ready(self, deadline: float) -> Tuple[str, int]:
        while True:
            line = read_line(self.proc, deadline)
            if line.startswith("listening on "):
                host, _, port = line[len("listening on "):].rpartition(":")
                break
        while time.perf_counter() < deadline:
            try:
                status, _doc = http_json_request(
                    host, int(port), "GET", "/v1/health", timeout_s=5.0
                )
                if status == 200:
                    return host, int(port)
            except (OSError, ServiceError):  # not accepting connections yet
                pass
            time.sleep(0.01)
        raise RuntimeError("fleet never answered /v1/health with 200")

    def send(self, doc: Dict[str, Any], *, traced: bool = False):
        return post_run(self.host, self.port, doc, traced=traced)

    def scrape(self) -> Dict[str, float]:
        """The fleet-wide counters the ledger reads from ``/metrics``."""
        status, text = http_text_request(self.host, self.port, "GET", "/metrics", timeout_s=10.0)
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        page = parse_exposition(text)
        return {
            "coalesced": page.total("repro_coalesced_total"),
            "retries": page.total("repro_router_retries_total"),
        }

    def pids(self) -> List[int]:
        doc = json.loads(self.state_file.read_text())
        return [doc["router"]["pid"]] + [s["pid"] for s in doc["shards"]]

    def peak_rss_mb(self) -> float:
        """Router plus shard ``VmHWM``: the fleet's peak resident memory."""
        return sum(_vm_hwm_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        """SIGTERM drains the fleet; anything left after the timeout is killed."""
        shard_pids: List[int] = []
        try:
            shard_pids = self.pids()[1:]
        except (OSError, ValueError, KeyError):
            pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._kill_group()
                self.proc.wait(timeout=10)
        # Shards are the router's children: make sure none outlives it.
        deadline = time.monotonic() + 10.0
        while any(Path(f"/proc/{pid}").exists() for pid in shard_pids):
            if time.monotonic() > deadline:
                self._kill_group()
                break
            time.sleep(0.05)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass


@dataclass
class Block:
    """One closed-loop block: a fixed-mix batch of requests, sent to completion."""

    responses: List[Response]
    wall_s: float

    def summary(self) -> Dict[str, float]:
        ok = [r for r in self.responses if r.ok]
        return {
            "wall_s": self.wall_s,
            "items": len(ok),
            "tasks": sum(r.tasks for r in ok),
            "sim_makespan_s": sum(r.makespan for r in ok),
        }


@dataclass
class Phase:
    """One fleet's measured traffic: warm-up, open loop, closed-loop blocks."""

    warm: List[Response]
    opened: List[Response]
    blocks: List[Block]
    #: ``/metrics`` counter deltas over the open loop.
    counters: Dict[str, float]

    @property
    def closed(self) -> List[Response]:
        return [r for b in self.blocks for r in b.responses]

    @property
    def responses(self) -> List[Response]:
        return self.warm + self.opened + self.closed


def run_phase(fleet: Fleet, docs: Sequence[Dict[str, Any]], seed: int, seconds: float,
              *, traced: bool) -> Phase:
    """Warm-up, then ``OPEN_SHARE`` of ``seconds`` at ``RATE``, the rest closed-loop.

    The closed loop runs in blocks of ``CLOSED_BLOCK`` requests, each a
    systematic sample over the warmed entries sent to completion, so blocks
    are alike and, like batch rounds, the fastest ones give the capacity.
    """
    n_open = max(1, round(RATE * seconds * OPEN_SHARE))

    def send(i: int):
        return fleet.send(docs[i], traced=traced)

    warm, _ = drive(send, range(WARM_RANKS))
    before = fleet.scrape()
    opened, _ = drive(
        send, wl.serve_requests(seed, n_open, stream="open", ranks=WARM_RANKS), rate=RATE
    )
    after = fleet.scrape()
    blocks: List[Block] = []
    t_end = time.perf_counter() + seconds * (1 - OPEN_SHARE)
    while len(blocks) < MIN_BLOCKS or time.perf_counter() < t_end:
        picks = wl.serve_requests(seed, CLOSED_BLOCK, stream=f"closed-{len(blocks)}",
                                  ranks=WARM_RANKS)
        blocks.append(Block(*drive(send, picks)))
    return Phase(warm, opened, blocks, {k: after[k] - before[k] for k in before})


def _sample_responses(fleet: Fleet, docs, catalogue, seed: int, seen: set) -> List[Response]:
    """Request each sampled catalogue entry the traffic never drew (untimed)."""
    index = {it.label: i for i, it in enumerate(catalogue)}
    out = []
    for it in wl.sample_items("serve-fleet", seed):  # also the accuracy items
        if it.label not in seen:
            i = index[it.label]
            t = time.perf_counter()
            status, doc = fleet.send(docs[i])
            out.append(_response(i, t, t, status, doc))
    return out


def run_serve(
    seed: int, seconds: float, trace: bool, tmp: Path, env: Dict[str, str]
) -> Dict[str, Any]:
    """The whole ``serve-fleet`` run; returns the raw document the report reads.

    Untraced: ``SETUP_SAMPLES`` fleet start-ups (the last one is measured).
    Traced: two fresh fleets on the same request schedule, half the time
    each -- untraced, then with every request traced -- so the ledger's
    overhead compares like with like.
    """
    from repro.service.protocol import RunRequest

    catalogue = wl.serve_catalogue()
    docs = [RunRequest(spec=it.spec).to_document() for it in catalogue]
    setups: List[float] = []
    phases: List[Phase] = []
    extra: List[Response] = []
    rss = 0.0
    plan = [(seconds / 2, False), (seconds / 2, True)] if trace else [(seconds, False)]
    if not trace:
        for k in range(SETUP_SAMPLES - 1):
            fleet = Fleet(tmp / f"setup-{k}", env)
            setups.append(fleet.setup_s)
            fleet.stop()
    for k, (phase_s, tracing) in enumerate(plan):
        fleet = Fleet(tmp / f"fleet-{k}", env)
        setups.append(fleet.setup_s)
        try:
            phases.append(run_phase(fleet, docs, seed, phase_s, traced=tracing))
            if k == len(plan) - 1:
                drawn = {catalogue[r.index].label for p in phases for r in p.responses if r.ok}
                extra = _sample_responses(fleet, docs, catalogue, seed, drawn)
            rss = max(rss, fleet.peak_rss_mb())
        finally:
            fleet.stop()

    # Every response for one catalogue entry must carry the same trace, in
    # both passes; the first one seen is checked against the pins and the
    # re-run sample below.
    produced: Dict[str, str] = {}
    makespans: Dict[str, float] = {}
    problems: List[str] = []
    responses = [r for p in phases for r in p.responses] + extra
    for r in responses:
        label = catalogue[r.index].label
        if not r.ok:
            problems.append(f"{label}: HTTP {r.status or 'transport error'}")
            continue
        makespans.setdefault(label, r.makespan)
        if produced.setdefault(label, r.digest) != r.digest:
            problems.append(f"{label}: responses disagree on the trace")
    checks, mismatches = check_outputs("serve-fleet", seed, produced)
    problems += mismatches
    try:
        errors = accuracy("serve-fleet", makespans)
    except KeyError as exc:
        errors = []
        problems.append(f"accuracy item {exc} was never served")

    main = phases[0]
    doc: Dict[str, Any] = {
        "setups_s": setups,
        "open_latencies_s": [r.done - r.due for r in main.opened],
        "max_lag_s": max((r.sent - r.due for r in main.opened), default=0.0),
        "rounds": [b.summary() for b in main.blocks],
        "attempted": len(responses) + checks,
        "failed": len(problems),
        "problems": problems,
        "accuracy_pct": errors,
        "peak_rss_mb": rss,
    }
    if trace:
        untraced, traced_phase = phases
        ok_open = [r for r in traced_phase.opened if r.ok]
        counters = {
            "service.cache_hit_ratio": (
                sum(r.cached or r.coalesced for r in ok_open) / len(ok_open) if ok_open else 0.0
            ),
            "service.coalesced": traced_phase.counters["coalesced"],
            "service.rejected_429": float(sum(r.status == 429 for r in traced_phase.responses)),
            "service.retries": traced_phase.counters["retries"],
            "driver.max_lag_s": max((r.sent - r.due for r in traced_phase.opened), default=0.0),
        }
        requests = [
            {"latency_s": r.done - r.sent, "spans": r.spans or []}
            for r in traced_phase.opened + traced_phase.closed
            if r.ok
        ]
        cap = [capacity([b.summary() for b in p.blocks]) for p in (untraced, traced_phase)]
        doc["ledger"] = service_ledger(
            requests, counters=counters, traced_capacity_rps=cap[1], untraced_capacity_rps=cap[0]
        )
        doc["ledger_runs"] = len(requests)
        doc["traced_wall_s"] = sum(q["latency_s"] for q in requests)
        doc["spans"] = [s for q in requests for s in q["spans"]]
    return doc

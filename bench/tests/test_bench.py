"""Self-tests of the benchmark itself (run with ``pytest bench/tests``).

They use tiny work lists and a fake endpoint, never the timed workloads.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from bench import ROOT, WORKLOADS
from bench import worklists as wl
from bench.__main__ import RUN_SECONDS
from bench.checks import sha256
from bench.ledger import (
    BINDINGS,
    PER_LAYER,
    SpanRecorder,
    batch_ledger,
    request_self_times,
    traced,
)
from bench.report import E2E
from bench.serve import drive, post_run
from repro.runner.cache import ResultCache
from repro.runner.runner import sweep


def _originals():
    return {(b.module, b.owner, b.attr): vars(b.target())[b.attr] for b in BINDINGS}


def test_every_binding_exists_at_this_commit():
    assert all(b.target() is not None for b in BINDINGS)


def test_wrappers_restore_every_original_attribute():
    before = _originals()
    with traced(SpanRecorder()) as missing:
        assert missing == []
        during = _originals()
        assert all(during[k] is not v for k, v in before.items())
    assert _originals() == before
    assert all(_originals()[k] is v for k, v in before.items())


def test_wrappers_restore_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with traced(SpanRecorder()):
            raise RuntimeError("boom")
    assert all(_originals()[k] is v for k, v in before.items())


def _tiny_sweep(tmp_path, name):
    specs = wl.warm_up_specs()
    result = sweep(specs, jobs=1, cache=ResultCache(tmp_path / name))
    return [sha256(r.trace_dump()) for r in result.results]


def test_traced_and_untraced_digests_are_equal(tmp_path):
    untraced = _tiny_sweep(tmp_path, "a")
    recorder = SpanRecorder()
    with traced(recorder):
        traced_digests = _tiny_sweep(tmp_path, "b")
    assert traced_digests == untraced
    names = {s.name for s in recorder.spans}
    # The sweep crosses every in-process layer but the array lowering.
    assert {"algorithms.build", "runner.spec.cache_key", "runner.cache.get",
            "runner.cache.put", "machine.collect_samples", "kernels.fit",
            "schedulers.run", "trace.save", "trace.load"} <= names


def test_self_times_and_other_add_up_to_the_traced_wall(tmp_path):
    recorder = SpanRecorder()
    t0 = time.perf_counter()
    with traced(recorder):
        _tiny_sweep(tmp_path, "c")
    wall = time.perf_counter() - t0
    ledger = batch_ledger(recorder.spans, items=2, traced_wall_s=wall, untraced_wall_s=wall)
    seconds = [name for name, unit, _ in PER_LAYER if unit == "s" and name != "driver.max_lag_s"]
    assert sum(ledger[name] for name in seconds) * 2 == pytest.approx(wall, rel=1e-9)
    assert ledger["other_s"] >= 0
    assert ledger["algorithms.build_calls"] > 0


def test_service_split_adds_up_to_the_request_latency():
    spans = [
        {"name": "router.route", "start_s": 0.000, "duration_s": 0.002},
        {"name": "router.forward", "start_s": 0.002, "duration_s": 0.050},
        {"name": "shard.admission", "start_s": 0.003, "duration_s": 0.001},
        {"name": "shard.wait", "start_s": 0.004, "duration_s": 0.045},
        {"name": "shard.run", "start_s": 0.005, "duration_s": 0.040},
        {"name": "shard.cache_lookup", "start_s": 0.005, "duration_s": 0.010},
    ]
    split = request_self_times(0.060, spans)
    assert sum(split.values()) == pytest.approx(0.060)
    assert split["service.shard.run_s"] == pytest.approx(0.030)
    assert split["service.shard.wait_s"] == pytest.approx(0.005)
    assert split["service.transport_s"] == pytest.approx(0.008)


def test_report_names_equal_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in E2E
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert doc["run_seconds"] == RUN_SECONDS


def test_work_lists_come_from_the_seed():
    for workload in WORKLOADS[:3]:
        assert wl.round_items(workload, 5, 1) == wl.round_items(workload, 5, 1)
        assert wl.round_items(workload, 5, 1) != wl.round_items(workload, 6, 1)
        # The reference round is the same for every seed.
        assert wl.round_items(workload, 5, 0) == wl.round_items(workload, 6, 0)
    assert wl.serve_requests(5, 50, stream="open") == wl.serve_requests(5, 50, stream="open")
    assert wl.serve_requests(5, 50, stream="open") != wl.serve_requests(6, 50, stream="open")
    assert len({it.label for it in wl.serve_catalogue()}) == wl.SERVE_SIZE


class _SlowHandler(BaseHTTPRequestHandler):
    """A fake ``/v1/run`` that takes ``delay`` seconds and fails index 3."""

    delay = 0.2
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (http.server naming)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(self.delay)
        if body["spec"] == 3:
            status, doc = 500, {"ok": False, "error": "failed"}
        else:
            status, doc = 200, {"ok": True, "trace": f"t{body['spec']}", "cached": True,
                                "metrics": {"tasks_executed": 1, "makespan": 0.5}}
        raw = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_open_loop_times_requests_from_their_due_time(slow_endpoint):
    host, port = slow_endpoint

    def send(i):
        return post_run(host, port, {"spec": i}, traced=False)

    # 20 req/s against a 0.2 s service with two connections: request i can
    # start at 0.2 * (i // 2) + 0.05 * (i % 2) at the earliest, so it is sent
    # that much after its due time 0.05 * i and completes 0.2 s later.
    responses, _ = drive(send, list(range(10)), rate=20.0)
    assert [r.index for r in responses] == list(range(10))
    for i, r in enumerate(responses):
        lag = 0.2 * (i // 2) + 0.05 * (i % 2) - 0.05 * i
        assert r.sent - r.due == pytest.approx(lag, abs=0.08)
        assert r.done - r.due == pytest.approx(lag + 0.2, abs=0.1)
    assert max(r.sent - r.due for r in responses) == pytest.approx(0.4, abs=0.08)
    assert [r.ok for r in responses].count(False) == 1
    assert not responses[3].ok and responses[3].status == 500


def test_transport_errors_count_as_failed():
    with ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler) as server:
        host, port = server.server_address  # bound but never served, then closed
    responses, _ = drive(lambda i: post_run(host, port, {"spec": i}, traced=False), [0, 1])
    assert [(r.ok, r.status) for r in responses] == [(False, 0), (False, 0)]

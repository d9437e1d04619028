"""Tests of the ``repro serve`` stack: protocol, core service, HTTP e2e.

The concurrency-sensitive behaviours (single-flight coalescing,
backpressure, deadlines, draining) are pinned against the transport-free
:class:`SimulationService` with an injected, gateable ``run_fn`` — every
race in these tests is opened and closed explicitly, never by sleeping and
hoping.  The HTTP layer is then exercised end-to-end: a live server, real
sockets, 32 concurrent clients, and a SIGTERM drain of a subprocess.
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
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.core.metrics import RunMetrics
from repro.runner.cache import ResultCache
from repro.runner.runner import RunResult, run_cached
from repro.runner.spec import ProgramSpec, RunSpec, SchedulerSpec
from repro.service import (
    ReproServer,
    RunRequest,
    ServiceClient,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    SimulationService,
    sweep_via_service,
)
from repro.service.client import http_json_request
from repro.service.protocol import SERVICE_SCHEMA, error_document


def make_spec(seed: int = 0, nt: int = 4, **kwargs) -> RunSpec:
    return RunSpec(
        program=ProgramSpec("cholesky", nt, 32),
        scheduler=SchedulerSpec("quark", n_workers=4),
        machine="uniform_4",
        seed=seed,
        **kwargs,
    )


def fake_result(spec: RunSpec) -> RunResult:
    return RunResult(
        spec=spec,
        key=spec.cache_key(),
        cached=False,
        metrics=RunMetrics(),
        wall_s=0.0,
        trace_text=f"fake-trace-{spec.seed}\n",
    )


class Gate:
    """An injectable run_fn whose completion the test controls explicitly."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.lock = threading.Lock()
        self.requests: list = []

    def __call__(self, request: RunRequest) -> RunResult:
        with self.lock:
            self.requests.append(request)
        assert self.release.wait(30), "test forgot to release the gate"
        return fake_result(request.spec)

    def started(self) -> int:
        with self.lock:
            return len(self.requests)


def wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# protocol documents
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_document_roundtrip(self):
        req = RunRequest(spec=make_spec(seed=3), timeline=True, timeout_s=2.5)
        back = RunRequest.from_document(req.to_document())
        assert back == req
        assert back.spec.cache_key() == req.spec.cache_key()

    def test_rejects_unknown_request_field(self):
        doc = RunRequest(spec=make_spec()).to_document()
        doc["timelinee"] = True
        with pytest.raises(ValueError, match="timelinee"):
            RunRequest.from_document(doc)

    def test_rejects_unknown_spec_field_from_the_wire(self):
        doc = RunRequest(spec=make_spec()).to_document()
        doc["spec"]["sheduler"] = {"name": "quark"}
        with pytest.raises(ValueError, match="sheduler"):
            RunRequest.from_document(doc)

    def test_rejects_foreign_schema(self):
        doc = RunRequest(spec=make_spec()).to_document()
        doc["schema"] = "somebody.else/v9"
        with pytest.raises(ValueError, match="schema"):
            RunRequest.from_document(doc)

    @pytest.mark.parametrize("timeout", [0, -1.0, "fast", True])
    def test_rejects_bad_timeout(self, timeout):
        doc = RunRequest(spec=make_spec()).to_document()
        doc["timeout_s"] = timeout
        with pytest.raises(ValueError, match="timeout_s"):
            RunRequest.from_document(doc)

    def test_error_document_requires_known_code(self):
        with pytest.raises(ValueError, match="unknown error code"):
            error_document("nope", "x")
        doc = error_document("overloaded", "busy", retry_after_s=0.5)
        assert doc["ok"] is False and doc["retry_after_s"] == 0.5


#: Spec fields that used to pass wire validation and then fail inside the
#: run as ``500 failed`` (``cal_nt`` "4" dropped the connection instead):
#: ``(dotted path, bad value, message fragment)`` on a simulated StarPU spec.
MALFORMED_SPEC_FIELDS = [
    ("seed", "abc", "seed"),
    ("seed", -1, "seed"),
    ("seed", 1.5, "seed"),
    ("machine", "nope", "machine"),
    ("scheduler.name", "foo", "scheduler"),
    ("scheduler.name", "quark", "policy"),
    ("scheduler.n_workers", 0, "n_workers"),
    ("scheduler.n_workers", "4", "n_workers"),
    ("scheduler.window", 0, "window"),
    ("scheduler.window", "8", "window"),
    ("scheduler.policy", "bogus", "policy"),
    ("scheduler.immediate_successor", True, "immediate_successor"),
    ("cal_seed", "x", "cal_seed"),
    ("cal_nt", "4", "cal_nt"),
    ("family", "bogus", "family"),
    ("engine_mode", "multicell", "partitioned engine"),
    ("engine_backend", "vectorized", "engine_backend"),
]


def _starpu_simulated_spec() -> RunSpec:
    return RunSpec(
        program=ProgramSpec("cholesky", 3, 32),
        scheduler=SchedulerSpec("starpu", 3, policy="prio"),
        machine="uniform_4",
        mode="simulated",
        cal_nt=4,
    )


def _malformed_body(path: str, value) -> dict:
    spec = _starpu_simulated_spec().to_dict()
    *parents, leaf = path.split(".")
    node = spec
    for name in parents:
        node = node[name]
    node[leaf] = value
    return {"schema": SERVICE_SCHEMA, "spec": spec}


class TestSpecValidation:
    @pytest.mark.parametrize(
        "path,value,fragment",
        MALFORMED_SPEC_FIELDS,
        ids=[f"{p}={v!r}" for p, v, _ in MALFORMED_SPEC_FIELDS],
    )
    def test_malformed_field_fails_at_parse_time(self, path, value, fragment):
        with pytest.raises(ValueError, match=fragment):
            RunRequest.from_document(_malformed_body(path, value))

    def test_parse_builds_no_program_or_scheduler(self, monkeypatch):
        def refuse(self):
            raise AssertionError("parsing must not build anything")

        monkeypatch.setattr(ProgramSpec, "build", refuse)
        monkeypatch.setattr(SchedulerSpec, "build", refuse)
        doc = RunRequest(_starpu_simulated_spec()).to_document()
        assert RunRequest.from_document(doc).spec == _starpu_simulated_spec()

    def test_server_answers_400_before_running_anything(self, tmp_path):
        with SimulationService(workers=1, cache=tmp_path / "cache") as svc:
            server = ReproServer(svc, port=0).start()
            try:
                host, port = server.address
                for path, value, fragment in MALFORMED_SPEC_FIELDS:
                    status, doc = http_json_request(
                        host, port, "POST", "/v1/run", _malformed_body(path, value)
                    )
                    assert (status, doc["error"]) == (400, "bad_request"), (path, doc)
                    assert fragment in doc["message"]
                legacy = _starpu_simulated_spec().to_dict()
                legacy["engine_mode"] = "serialized"
                status, doc = http_json_request(
                    host, port, "POST", "/v1/run", {"spec": legacy}
                )
                assert status == 200 and doc["key"] == _starpu_simulated_spec().cache_key()
            finally:
                server.shutdown(drain_timeout_s=10)
                assert server.wait_closed(10)
            assert len(ResultCache(tmp_path / "cache")) == 2  # the run + its calibration


# ---------------------------------------------------------------------------
# service core (injected run_fn: deterministic concurrency)
# ---------------------------------------------------------------------------


class TestServiceCore:
    def test_identical_inflight_requests_coalesce_to_one_execution(self):
        gate = Gate()
        with SimulationService(workers=2, max_pending=8, run_fn=gate) as svc:
            results, n = [], 6
            threads = [
                threading.Thread(target=lambda: results.append(svc.submit(RunRequest(make_spec()))))
                for _ in range(n)
            ]
            for t in threads:
                t.start()
            # All six must be inside submit() before the flight completes.
            wait_until(lambda: svc.stats().requests == n)
            assert gate.started() == 1  # single flight despite six requests
            gate.release.set()
            for t in threads:
                t.join(10)
            assert len(results) == n
            assert sum(1 for r in results if r.coalesced) == n - 1
            assert len({r.result.trace_text for r in results}) == 1
            stats = svc.stats()
            assert stats.executed == 1 and stats.coalesced == n - 1

    def test_distinct_specs_get_distinct_flights(self):
        gate = Gate()
        with SimulationService(workers=4, max_pending=8, run_fn=gate) as svc:
            threads = [
                threading.Thread(target=svc.submit, args=(RunRequest(make_spec(seed=s)),))
                for s in (1, 2)
            ]
            for t in threads:
                t.start()
            wait_until(lambda: gate.started() == 2)
            gate.release.set()
            for t in threads:
                t.join(10)
            assert svc.stats().executed == 2 and svc.stats().coalesced == 0

    def test_timeline_flag_never_coalesces_onto_plain_flight(self):
        gate = Gate()
        with SimulationService(workers=4, max_pending=8, run_fn=gate) as svc:
            threads = [
                threading.Thread(target=svc.submit, args=(RunRequest(make_spec(), timeline=tl),))
                for tl in (False, True)
            ]
            for t in threads:
                t.start()
            wait_until(lambda: gate.started() == 2)  # same spec, two flights
            gate.release.set()
            for t in threads:
                t.join(10)

    def test_overload_rejection_is_retriable_and_leaves_flights_alone(self):
        gate = Gate()
        with SimulationService(workers=1, max_pending=2, run_fn=gate) as svc:
            threads = [
                threading.Thread(target=svc.submit, args=(RunRequest(make_spec(seed=s)),))
                for s in (1, 2)
            ]
            for t in threads:
                t.start()
            wait_until(lambda: svc.stats().in_flight == 2)
            with pytest.raises(ServiceOverloaded) as err:
                svc.submit(RunRequest(make_spec(seed=3)))
            assert err.value.retriable and err.value.retry_after_s > 0
            gate.release.set()
            for t in threads:
                t.join(10)
            # Admission reopens once the backlog clears: the retry succeeds.
            served = svc.submit(RunRequest(make_spec(seed=3)))
            assert not served.coalesced
            assert svc.stats().rejected_overload == 1

    def test_deadline_raises_timeout_but_flight_still_completes(self):
        gate = Gate()
        with SimulationService(workers=1, max_pending=4, run_fn=gate) as svc:
            with pytest.raises(ServiceTimeout) as err:
                svc.submit(RunRequest(make_spec(), timeout_s=0.05))
            assert err.value.retriable
            gate.release.set()
            wait_until(lambda: svc.stats().executed == 1)  # ran to completion
            assert svc.stats().timeouts == 1

    def test_run_failure_propagates_as_non_retriable_error(self):
        def boom(request):
            raise RuntimeError("kaboom")

        with SimulationService(workers=1, max_pending=4, run_fn=boom) as svc:
            with pytest.raises(ServiceError, match="kaboom") as err:
                svc.submit(RunRequest(make_spec()))
            assert not err.value.retriable
            assert svc.stats().failures == 1

    def test_drain_refuses_new_work_and_waits_for_inflight(self):
        gate = Gate()
        svc = SimulationService(workers=1, max_pending=4, run_fn=gate)
        done = []
        t = threading.Thread(
            target=lambda: done.append(svc.submit(RunRequest(make_spec())))
        )
        t.start()
        wait_until(lambda: gate.started() == 1)
        assert svc.drain(timeout_s=0.05) is False  # in-flight work pins it open
        with pytest.raises(ServiceClosed) as err:
            svc.submit(RunRequest(make_spec(seed=9)))
        assert err.value.retriable
        gate.release.set()
        assert svc.drain(timeout_s=10.0) is True
        t.join(10)
        assert len(done) == 1 and done[0].result is not None
        assert svc.close() is True

    def test_request_deadline_becomes_threaded_stall_budget(self):
        captured = []

        def capture(request):
            captured.append(request)
            return fake_result(request.spec)

        spec = make_spec(mode="simulated", runtime="threaded", cal_nt=2)
        with SimulationService(workers=1, max_pending=4, run_fn=capture) as svc:
            svc.submit(RunRequest(spec, timeout_s=7.5))
        adjusted = captured[0].spec
        assert adjusted.stall_timeout == 7.5
        # The stall budget is watchdog configuration, not run identity.
        assert adjusted.cache_key() == spec.cache_key()

    def test_malformed_document_raises_value_error(self):
        with SimulationService(workers=1, run_fn=fake_result) as svc:
            with pytest.raises(ValueError):
                svc.submit_document({"spec": {"program": {"algorithm": "nope"}}})


# ---------------------------------------------------------------------------
# service core against real runs + the shared cache
# ---------------------------------------------------------------------------


class TestServiceRealRuns:
    def test_served_bytes_match_direct_execution_and_cache_hits(self, tmp_path):
        spec = make_spec(seed=5)
        with SimulationService(workers=2, cache=tmp_path / "cache") as svc:
            first = svc.submit(RunRequest(spec))
            second = svc.submit(RunRequest(spec))
        assert not first.result.cached and second.result.cached
        direct = run_cached(spec, None)
        assert first.result.trace_dump() == direct.trace_dump()
        assert second.result.trace_dump() == direct.trace_dump()

    def test_timeline_request_exports_artifacts_and_publishes(self, tmp_path):
        spec = make_spec(seed=6)
        with SimulationService(
            workers=1, cache=tmp_path / "cache", probe_dir=tmp_path / "probes"
        ) as svc:
            observed = svc.submit(RunRequest(spec, timeline=True))
            assert observed.artifacts and all(p.is_file() for p in observed.artifacts)
            assert not observed.result.cached  # probes force execution
            # ... but the observed run still published: the plain run hits.
            assert svc.submit(RunRequest(spec)).result.cached


# ---------------------------------------------------------------------------
# HTTP end to end
# ---------------------------------------------------------------------------


@pytest.fixture
def live_server():
    """Start a ReproServer on an ephemeral port around an injected service."""
    started = []

    def start(service: SimulationService) -> ServiceClient:
        server = ReproServer(service, port=0).start()
        started.append(server)
        host, port = server.address
        return ServiceClient(host, port, max_retries=0)

    yield start
    for server in started:
        server.shutdown(drain_timeout_s=10)
        assert server.wait_closed(10)


class TestHTTPEndToEnd:
    N_DISTINCT = 8
    COPIES = 4  # 32 concurrent requests total

    def test_32_concurrent_requests_single_flight_and_byte_identity(
        self, tmp_path, live_server
    ):
        release = threading.Event()
        executions: Counter = Counter()
        lock = threading.Lock()
        cache = ResultCache(tmp_path / "cache")

        def gated_run(request: RunRequest) -> RunResult:
            with lock:
                executions[request.spec.cache_key()] += 1
            assert release.wait(30)
            return run_cached(request.spec, cache)

        service = SimulationService(
            workers=self.N_DISTINCT, max_pending=64, run_fn=gated_run
        )
        client = live_server(service)
        specs = [make_spec(seed=s) for s in range(self.N_DISTINCT)] * self.COPIES
        total = len(specs)
        assert total == 32

        with ThreadPoolExecutor(max_workers=total) as pool:
            futures = [pool.submit(client.run, spec) for spec in specs]
            # Hold every flight until all 32 requests are inside submit():
            # duplicates then *must* coalesce rather than racing the cache.
            wait_until(lambda: service.stats().requests == total, timeout_s=20)
            release.set()
            docs = [f.result(timeout=60) for f in futures]

        assert all(doc["ok"] for doc in docs)
        # Single-flight: every distinct spec executed exactly once.
        assert sorted(executions.values()) == [1] * self.N_DISTINCT
        stats = service.stats()
        assert stats.executed == self.N_DISTINCT
        assert stats.coalesced == total - self.N_DISTINCT
        # Byte identity: every response carries exactly the bytes a direct
        # in-process run of the same spec produces.
        by_key = {}
        for spec, doc in zip(specs, docs):
            by_key.setdefault(spec.cache_key(), []).append((spec, doc))
        for key, group in by_key.items():
            spec = group[0][0]
            expected = run_cached(spec, None).trace_dump()
            for _, doc in group:
                assert doc["trace"] == expected
                assert doc["key"] == key

    def test_over_limit_load_rejected_retriable_not_hung(self, live_server):
        gate = Gate()
        service = SimulationService(workers=1, max_pending=1, run_fn=gate)
        client = live_server(service)

        with ThreadPoolExecutor(max_workers=1) as pool:
            blocked = pool.submit(client.run, make_spec(seed=0))
            wait_until(lambda: gate.started() == 1)
            t0 = time.monotonic()
            with pytest.raises(ServiceOverloaded) as err:
                client.run(make_spec(seed=1))
            assert time.monotonic() - t0 < 10  # rejected promptly, no hang
            assert err.value.retriable and err.value.retry_after_s is not None
            gate.release.set()
            assert blocked.result(timeout=30)["ok"]
        # A retrying client turns the same rejection into eventual success.
        patient = ServiceClient(client.host, client.port, max_retries=8)
        assert patient.run(make_spec(seed=1))["ok"]

    def test_health_stats_and_batch_endpoints(self, live_server):
        service = SimulationService(workers=2, run_fn=lambda r: fake_result(r.spec))
        client = live_server(service)
        assert client.health()["status"] == "serving"
        good = RunRequest(make_spec(seed=1))
        bad = {"schema": SERVICE_SCHEMA, "spec": {"program": {"algorithm": "nope"}}}
        docs = client.batch([good])
        assert len(docs) == 1 and docs[0]["ok"]
        # A malformed sibling fails alone, without poisoning the batch.
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        conn.request(
            "POST",
            "/v1/batch",
            body=json.dumps({"requests": [good.to_document(), bad]}),
        )
        resp = json.loads(conn.getresponse().read())
        conn.close()
        assert resp["responses"][0]["ok"]
        assert not resp["responses"][1]["ok"]
        assert resp["responses"][1]["error"] == "bad_request"
        stats = client.stats()
        assert stats["ok"] and stats["requests"] >= 2

    def test_sweep_via_service_coalesces_duplicates(self, live_server):
        cache_free = SimulationService(workers=4, max_pending=64)
        client = live_server(cache_free)
        specs = [make_spec(seed=s % 3) for s in range(9)]
        docs = sweep_via_service(specs, client, jobs=9)
        assert len(docs) == 9 and all(d["ok"] for d in docs)
        for spec, doc in zip(specs, docs):
            assert doc["key"] == spec.cache_key()


@pytest.mark.slow
class TestServeProcess:
    """The daemon as users run it: a real subprocess, killed with SIGTERM."""

    def _start_serve(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(tmp_path / "cache"), *extra],
            env=env, stderr=subprocess.PIPE, text=True, cwd=str(tmp_path),
        )
        line = proc.stderr.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        assert match, f"serve never announced its port: {line!r}"
        return proc, int(match.group(1))

    def test_sigterm_drains_inflight_request_before_exit(self, tmp_path):
        proc, port = self._start_serve(tmp_path)
        try:
            client = ServiceClient("127.0.0.1", port, max_retries=0)
            big = RunSpec(
                program=ProgramSpec("cholesky", 48, 64),  # ~1s of real work
                scheduler=SchedulerSpec("quark", n_workers=4),
                machine="uniform_4",
                seed=0,
            )
            with ThreadPoolExecutor(max_workers=1) as pool:
                inflight = pool.submit(client.run, big)
                # SIGTERM only once the daemon has admitted the flight.
                wait_until(lambda: client.stats().get("in_flight", 0) >= 1,
                           timeout_s=30)
                proc.send_signal(signal.SIGTERM)
                doc = inflight.result(timeout=60)
            # Drain semantics: the in-flight run completed and was answered.
            assert doc["ok"] and len(doc["trace"].splitlines()) > 100
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()

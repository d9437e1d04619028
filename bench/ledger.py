"""The traced pass: spans around each layer's public calls, and the ledger.

Spans are recorded from the benchmark's own code, never from inside the
program: :func:`traced` swaps each layer's public function for a timing
wrapper *at the binding its callers look it up through* (a class attribute,
or the module global a caller imported), and puts the original back on exit.
Nothing under ``src/`` changes, and untraced runs execute the unmodified
code.

A span's *self* time is its duration minus the time of the spans it called,
so the self times of one thread's spans never overlap and their sum plus a
residual ``other_s`` is exactly the traced wall time.

The service layers cannot be wrapped from here -- they run in the fleet's
processes -- so :func:`service_ledger` builds their ledger from the spans
the fleet already returns on requests carrying ``X-Repro-Trace-Id``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.obs.telemetry import Span, new_span_id

__all__ = [
    "BINDINGS",
    "PER_LAYER",
    "SpanRecorder",
    "batch_ledger",
    "empty_ledger",
    "service_ledger",
    "traced",
]

#: Every per-layer metric: (name, unit, better).  ``_s`` metrics are self
#: seconds per run (one work item: a simulate() call, a spec, a request).
PER_LAYER = (
    ("algorithms.build_s", "s", "lower"),
    ("algorithms.build_calls", "count", "lower"),
    ("runner.spec.cache_key_s", "s", "lower"),
    ("runner.cache.get_s", "s", "lower"),
    ("runner.cache.put_s", "s", "lower"),
    ("runner.cache.hit_ratio", "ratio", "higher"),
    ("runner.cache.put_bytes", "bytes", "lower"),
    ("machine.collect_samples_s", "s", "lower"),
    ("kernels.fit_s", "s", "lower"),
    ("core.soa.lower_s", "s", "lower"),
    ("schedulers.sim_run_s", "s", "lower"),
    ("schedulers.real_run_s", "s", "lower"),
    ("schedulers.ns_per_task", "ns", "lower"),
    ("schedulers.events", "count", "lower"),
    ("trace.save_s", "s", "lower"),
    ("trace.load_s", "s", "lower"),
    ("service.router.route_s", "s", "lower"),
    ("service.router.forward_s", "s", "lower"),
    ("service.shard.admission_s", "s", "lower"),
    ("service.shard.wait_s", "s", "lower"),
    ("service.shard.cache_lookup_s", "s", "lower"),
    ("service.shard.run_s", "s", "lower"),
    ("service.transport_s", "s", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.coalesced", "count", "higher"),
    ("service.rejected_429", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("driver.max_lag_s", "s", "lower"),
    ("other_s", "s", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)


@dataclass(frozen=True)
class Binding:
    """One wrapped call binding: ``<module>[.<owner>].<attr>`` -> span name."""

    module: str
    owner: Optional[str]
    attr: str
    span: str

    def target(self) -> Any:
        """The module or class holding the binding (``None`` if gone)."""
        try:
            obj: Any = importlib.import_module(self.module)
        except ImportError:
            return None
        if self.owner is not None:
            obj = getattr(obj, self.owner, None)
        if obj is None or self.attr not in vars(obj):
            return None
        return obj


#: The layers' public calls, wrapped where their callers bind them.  Trace
#: (de)serialisation is wrapped at both bindings the runner reaches it
#: through: the cache module's file functions and the runner's in-memory ones.
BINDINGS = (
    Binding("repro.runner.spec", "ProgramSpec", "build", "algorithms.build"),
    Binding("repro.runner.spec", "RunSpec", "cache_key", "runner.spec.cache_key"),
    Binding("repro.runner.cache", "ResultCache", "get", "runner.cache.get"),
    Binding("repro.runner.cache", "ResultCache", "put", "runner.cache.put"),
    Binding("repro.runner.runner", None, "collect_samples", "machine.collect_samples"),
    Binding("repro.kernels.timing", "KernelModelSet", "from_samples", "kernels.fit"),
    Binding("repro.core.soa", "SoAProgram", "for_program", "core.soa.lower"),
    Binding("repro.schedulers.base", "SchedulerBase", "run", "schedulers.run"),
    Binding("repro.runner.cache", None, "save_trace", "trace.save"),
    Binding("repro.runner.runner", None, "dumps_trace", "trace.save"),
    Binding("repro.runner.cache", None, "load_trace", "trace.load"),
    Binding("repro.runner.runner", None, "loads_trace", "trace.load"),
)


def _entry_bytes(entry: Any) -> int:
    path = getattr(entry, "path", None)
    if path is None:
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _engine_path(metrics: Any) -> str:
    """Which event loop ran: C, array (pure Python) or object (+ why)."""
    info = metrics.extra.get("engine_backend") if metrics is not None else None
    if not info:
        return "object"
    if info.get("used") == "array":
        try:
            from repro.schedulers.array_engine import USING_COMPILED_CORE
        except ImportError:
            USING_COMPILED_CORE = False
        return "C" if USING_COMPILED_CORE else "array"
    reason = info.get("fallback_reason")
    return f"object (fallback: {reason})" if reason else "object"


def _prepare_run(args: tuple, kwargs: dict) -> None:
    # Engine counters need a RunMetrics; library callers often pass none.
    # Metrics only observe, so the trace is unchanged.
    if kwargs.get("metrics") is None:
        from repro.core.metrics import RunMetrics

        kwargs["metrics"] = RunMetrics()


def _describe_run(args: tuple, kwargs: dict, out: Any) -> Dict[str, Any]:
    program = args[1] if len(args) > 1 else kwargs["program"]
    backend = args[2] if len(args) > 2 else kwargs["backend"]
    metrics = kwargs["metrics"]
    return {
        "backend": "real" if type(backend).__name__ == "MachineBackend" else "sim",
        "tasks": len(program),
        "events": int(metrics.events_processed),
        "engine": _engine_path(metrics),
    }


_PREPARE: Dict[str, Callable[[tuple, dict], None]] = {"schedulers.run": _prepare_run}
_DESCRIBE: Dict[str, Callable[[tuple, dict, Any], Dict[str, Any]]] = {
    "runner.cache.get": lambda a, k, out: {"hit": out is not None},
    "runner.cache.put": lambda a, k, out: {"bytes": _entry_bytes(out)},
    "schedulers.run": _describe_run,
}


class SpanRecorder:
    """Keeps the traced pass's spans in memory, each with its self time.

    Nesting is tracked on one call stack: the batch workloads it records
    call the program from a single thread.
    """

    def __init__(self, trace_id: str = "bench") -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._stack: List[list] = []  # [span id, seconds spent in children]

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        prepare = _PREPARE.get(name)
        if prepare is not None:
            prepare(args, kwargs)
        stack = self._stack
        span_id = new_span_id()
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        t_wall, t0 = time.time(), time.perf_counter()
        out = None
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += duration
            attrs: Dict[str, Any] = {"self_s": duration - frame[1]}
            describe = _DESCRIBE.get(name)
            if failed:
                attrs["error"] = True
            elif describe is not None:
                attrs.update(describe(args, kwargs, out))
            self.spans.append(
                Span(name, "bench", t_wall, duration, span_id, self.trace_id, parent, attrs)
            )


def _wrap(original: Any, name: str, recorder: SpanRecorder) -> Any:
    if isinstance(original, classmethod):
        fn = original.__func__

        @functools.wraps(fn)
        def bound(cls, *args, **kwargs):
            return recorder.call(name, fn, (cls, *args), kwargs)

        return classmethod(bound)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return recorder.call(name, original, args, kwargs)

    return wrapper


@contextmanager
def traced(recorder: SpanRecorder, bindings: Sequence[Binding] = BINDINGS) -> Iterator[List[str]]:
    """Wrap every binding for the duration of the block; yields the missing ones.

    A binding a later refactor removed is skipped (its layer reads zero)
    rather than failing the run; the report lists it.
    """
    saved = []
    missing: List[str] = []
    try:
        for b in bindings:
            owner = b.target()
            if owner is None:
                missing.append(f"{b.module}.{b.owner + '.' if b.owner else ''}{b.attr}")
                continue
            original = vars(owner)[b.attr]
            setattr(owner, b.attr, _wrap(original, b.span, recorder))
            saved.append((owner, b.attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def empty_ledger() -> Dict[str, float]:
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


def _overhead_pct(traced_wall_s: float, untraced_wall_s: float) -> float:
    return (traced_wall_s / untraced_wall_s - 1.0) * 100.0 if untraced_wall_s > 0 else 0.0


def batch_ledger(
    spans: Iterable[Span], *, items: int, traced_wall_s: float, untraced_wall_s: float
) -> Dict[str, float]:
    """Per-run layer metrics of an in-process traced pass."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    gets = hits = put_bytes = tasks = events = 0
    run_by_backend: Dict[str, float] = defaultdict(float)
    for s in spans:
        own = float(s.attrs["self_s"])
        self_s[s.name] += own
        calls[s.name] += 1
        if s.name == "runner.cache.get":
            gets += 1
            hits += bool(s.attrs.get("hit"))
        elif s.name == "runner.cache.put":
            put_bytes += int(s.attrs.get("bytes", 0))
        elif s.name == "schedulers.run" and "backend" in s.attrs:
            run_by_backend[s.attrs["backend"]] += own
            tasks += int(s.attrs["tasks"])
            events += int(s.attrs["events"])
    n = max(1, items)
    out = empty_ledger()
    out.update(
        {
            "algorithms.build_s": self_s["algorithms.build"] / n,
            "algorithms.build_calls": calls["algorithms.build"] / n,
            "runner.spec.cache_key_s": self_s["runner.spec.cache_key"] / n,
            "runner.cache.get_s": self_s["runner.cache.get"] / n,
            "runner.cache.put_s": self_s["runner.cache.put"] / n,
            "runner.cache.hit_ratio": hits / gets if gets else 0.0,
            "runner.cache.put_bytes": put_bytes / n,
            "machine.collect_samples_s": self_s["machine.collect_samples"] / n,
            "kernels.fit_s": self_s["kernels.fit"] / n,
            "core.soa.lower_s": self_s["core.soa.lower"] / n,
            "schedulers.sim_run_s": run_by_backend["sim"] / n,
            "schedulers.real_run_s": run_by_backend["real"] / n,
            "schedulers.ns_per_task": self_s["schedulers.run"] / tasks * 1e9 if tasks else 0.0,
            "schedulers.events": events / n,
            "trace.save_s": self_s["trace.save"] / n,
            "trace.load_s": self_s["trace.load"] / n,
            "other_s": (traced_wall_s - sum(self_s.values())) / n,
            "trace_overhead_pct": _overhead_pct(traced_wall_s, untraced_wall_s),
        }
    )
    return out


def _overlap(a: Mapping[str, Any], b: Mapping[str, Any]) -> float:
    lo = max(a["start_s"], b["start_s"])
    hi = min(a["start_s"] + a["duration_s"], b["start_s"] + b["duration_s"])
    return max(0.0, hi - lo)


def request_self_times(latency_s: float, spans: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Split one traced request's client latency across the service layers.

    The fleet returns ``router.route`` and ``router.forward`` spans, and,
    under each forward, ``shard.admission``, ``shard.wait`` and the flight's
    ``shard.run`` (with ``shard.cache_lookup`` inside it).  ``shard.run``
    executes on a pool thread while the requester sits in ``shard.wait``,
    so only the part of the run inside the wait is charged to the run.
    """
    by: Dict[str, List[Mapping[str, Any]]] = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total(name: str) -> float:
        return sum(s["duration_s"] for s in by[name])

    route, forward = total("router.route"), total("router.forward")
    admission, wait = total("shard.admission"), total("shard.wait")
    run_in_wait = sum(_overlap(r, w) for r in by["shard.run"] for w in by["shard.wait"])
    lookup = min(total("shard.cache_lookup"), run_in_wait)
    return {
        "service.router.route_s": route,
        "service.router.forward_s": max(0.0, forward - admission - wait),
        "service.shard.admission_s": admission,
        "service.shard.wait_s": max(0.0, wait - run_in_wait),
        "service.shard.cache_lookup_s": lookup,
        "service.shard.run_s": run_in_wait - lookup,
        "service.transport_s": max(0.0, latency_s - route - forward),
    }


def service_ledger(
    requests: Sequence[Mapping[str, Any]],
    *,
    counters: Mapping[str, float],
    traced_capacity_rps: float,
    untraced_capacity_rps: float,
) -> Dict[str, float]:
    """Per-request layer metrics of a traced fleet phase.

    ``requests`` holds ``{"latency_s", "spans"}`` per traced request (send
    to response); the "wall" the ledger splits is their summed latency, the
    request-seconds the clients waited.  ``counters`` carries the phase's
    ``service.*`` counts and ``driver.max_lag_s``.
    """
    out = empty_ledger()
    n = max(1, len(requests))
    layered = 0.0
    wall = 0.0
    for req in requests:
        wall += req["latency_s"]
        for name, value in request_self_times(req["latency_s"], req["spans"]).items():
            out[name] += value / n
            layered += value
    out["other_s"] = (wall - layered) / n
    out.update(counters)
    # Throughput ratio, so the overhead reads like the batch workloads'.
    out["trace_overhead_pct"] = (
        _overhead_pct(1.0 / traced_capacity_rps, 1.0 / untraced_capacity_rps)
        if traced_capacity_rps > 0 and untraced_capacity_rps > 0
        else 0.0
    )
    return out

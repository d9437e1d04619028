"""Tests for the array-native (SoA) simulation core.

The headline guarantee: :class:`ArrayEngine` produces the *same bytes* as
the object :class:`Engine`, which stays in the tree as the oracle these
tests compare against.  The golden digests in
``tests/data/preopt_trace_digests.json`` must hold through the object
engine, the compiled C event loop, the pure-Python array loop (compiled
core forced off), and the per-call adapter path real-mode runs take — with
and without a probe attached.  On top of that, a Hypothesis differential
drives random hazard DAGs through both engines, the engine choice of
:meth:`SchedulerBase.run` and its record in ``metrics.extra`` are pinned
down, and a compiled core built from another source must be refused.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import cholesky_program, qr_program
from repro.bench import synthetic_models
from repro.core.metrics import RunMetrics
from repro.core.simbackend import SimulationBackend
from repro.core.simulator import run_real, simulate
from repro.core.soa import SoAProgram
from repro.core.task import Program
from repro.machine.backend import MachineBackend
from repro.obs import RecordingProbe
from repro.runner import ProgramSpec, RunSpec, SchedulerSpec
from repro.schedulers import _array_core
from repro.schedulers import array_engine as array_engine_module
from repro.schedulers import make_scheduler
from repro.schedulers.array_engine import (
    ArrayEngine,
    USING_COMPILED_CORE,
    array_backend_unsupported,
)
from repro.schedulers.engine import Engine
from repro.schedulers.quark import QuarkScheduler
from repro.trace.events import ColumnTrace
from repro.trace.textio import dumps_trace

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
SCHEDULERS = ("quark", "starpu", "ompss")
DIGESTS = json.loads((DATA / "preopt_trace_digests.json").read_text())["digests"]
ENGINES = {"object": Engine, "array": ArrayEngine}


def _digest(trace) -> str:
    return hashlib.sha256(dumps_trace(trace).encode()).hexdigest()


def _simulate_on(engine_cls, program, scheduler, models, *, seed, warmup_penalty=0.0,
                 **kwargs):
    """``simulate()`` with the engine picked by the test, not by the scheduler."""
    backend = SimulationBackend(models, warmup_penalty=warmup_penalty)
    return engine_cls(
        scheduler, program, backend, seed=seed, trace_meta={"mode": "simulated"}, **kwargs
    ).run()


def _use_core(variant, monkeypatch):
    if variant == "compiled":
        if not USING_COMPILED_CORE:
            pytest.skip("compiled array core not built")
    else:
        monkeypatch.setattr(array_engine_module, "_c_run", None)


@pytest.fixture(params=["compiled", "pure-python"])
def core_variant(request, monkeypatch):
    """Run a test under the C event loop and the pure-Python array loop.

    Forcing ``_c_run = None`` routes every ``ArrayEngine.run()`` through the
    interpreted loop; the ``compiled`` variant skips (not fails) where no C
    core was built so the suite stays green on compiler-less machines.
    """
    _use_core(request.param, monkeypatch)
    return request.param


@pytest.fixture(params=["object", "compiled", "pure-python"])
def engine_cls(request, monkeypatch):
    """The object engine, then the array engine on each of its two loops."""
    if request.param == "object":
        return Engine
    _use_core(request.param, monkeypatch)
    return ArrayEngine


# -- golden byte-identity ---------------------------------------------------
class TestGoldenDigests:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_simulated_matches_golden(self, scheduler, engine_cls):
        for algorithm, gen in (("cholesky", cholesky_program), ("qr", qr_program)):
            program = gen(8, 200)
            trace = _simulate_on(
                engine_cls,
                program,
                make_scheduler(scheduler, 16),
                synthetic_models(program),
                seed=1234,
                warmup_penalty=1e-3,
            )
            assert _digest(trace) == DIGESTS[f"sim/{algorithm}/{scheduler}/nt8"], (
                f"simulated trace drifted ({engine_cls.__name__}): "
                f"{algorithm}/{scheduler}"
            )

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_real_mode_matches_golden(self, scheduler):
        # MachineBackend has no sweep transforms, so on the array engine
        # real mode exercises the per-call adapter path of the Python loop.
        for algorithm, gen in (("cholesky", cholesky_program), ("qr", qr_program)):
            program = gen(8, 200)
            for engine_cls in ENGINES.values():
                trace = engine_cls(
                    make_scheduler(scheduler, 16),
                    program,
                    MachineBackend("magny_cours_48"),
                    seed=77,
                    trace_meta={"mode": "real"},
                ).run()
                assert _digest(trace) == DIGESTS[f"real/{algorithm}/{scheduler}/nt8"], (
                    f"real-mode trace drifted ({engine_cls.__name__}): "
                    f"{algorithm}/{scheduler}"
                )

    def test_probe_attachment_does_not_perturb_trace(self, core_variant):
        program = cholesky_program(8, 200)
        trace = _simulate_on(
            ArrayEngine,
            program,
            make_scheduler("quark", 16),
            synthetic_models(program),
            seed=1234,
            warmup_penalty=1e-3,
            probe=RecordingProbe(),
        )
        assert _digest(trace) == DIGESTS["sim/cholesky/quark/nt8"]

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_probe_stream_matches_object_engine(self, scheduler):
        program = cholesky_program(6, 200)
        models = synthetic_models(program)
        probes = {}
        for name, engine_cls in ENGINES.items():
            probe = RecordingProbe()
            _simulate_on(
                engine_cls, program, make_scheduler(scheduler, 16), models, seed=7, probe=probe
            )
            probes[name] = probe
        assert probes["object"].events == probes["array"].events
        assert probes["object"].deps == probes["array"].deps


# -- metrics parity ---------------------------------------------------------
class TestMetricsParity:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_counters_equal_across_backends(self, scheduler, core_variant):
        program = cholesky_program(8, 200)
        models = synthetic_models(program)
        collected = {}
        for name, engine_cls in ENGINES.items():
            metrics = RunMetrics()
            _simulate_on(
                engine_cls,
                program,
                make_scheduler(scheduler, 16),
                models,
                seed=1234,
                warmup_penalty=1e-3,
                metrics=metrics,
            )
            collected[name] = metrics
        a, b = collected["object"], collected["array"]
        assert a.events_processed == b.events_processed
        assert a.heap_pushes == b.heap_pushes
        assert a.heap_pops == b.heap_pops
        assert a.peak_heap_depth == b.peak_heap_depth
        assert a.tasks_executed == b.tasks_executed
        assert a.window_stalls == b.window_stalls
        assert a.dispatch_stalls == b.dispatch_stalls
        assert a.peak_ready_depth == b.peak_ready_depth
        assert a.makespan == pytest.approx(b.makespan)


# -- differential (Hypothesis) ----------------------------------------------
@st.composite
def _random_programs(draw):
    """Small random task DAGs with genuine RAW/WAR/WAW hazard structure."""
    n_refs = draw(st.integers(min_value=2, max_value=6))
    n_tasks = draw(st.integers(min_value=1, max_value=25))
    program = Program("hypothesis")
    refs = [program.registry.alloc("R", 64, key=("R", i)) for i in range(n_refs)]
    for _ in range(n_tasks):
        kernel = draw(st.sampled_from(["DGEMM", "DTRSM", "DSYRK"]))
        w = draw(st.integers(min_value=0, max_value=n_refs - 1))
        reads = draw(
            st.lists(st.integers(min_value=0, max_value=n_refs - 1), max_size=3)
        )
        accesses = [refs[w].write()] + [refs[r].read() for r in set(reads) - {w}]
        program.add_task(kernel, accesses, flops=1.0)
    return program


class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        program=_random_programs(),
        scheduler=st.sampled_from(SCHEDULERS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_workers=st.sampled_from([1, 2, 13, 16, 48]),
    )
    def test_array_trace_identical_to_object(
        self, program, scheduler, seed, n_workers
    ):
        models = synthetic_models(program)
        traces = {
            name: _simulate_on(
                engine_cls, program, make_scheduler(scheduler, n_workers), models, seed=seed
            )
            for name, engine_cls in ENGINES.items()
        }
        assert dumps_trace(traces["object"]) == dumps_trace(traces["array"])


# -- engine choice and its record -------------------------------------------
class _SubclassedQuark(QuarkScheduler):
    """A scheduler subclass: its hooks could differ, so it runs on objects."""


#: Configurations ``SchedulerBase.run`` hands to the object engine, with a
#: fragment of the recorded reason.
OBJECT_ONLY = [
    (lambda: make_scheduler("starpu", 16, policy="dmda"), "dmda"),
    (lambda: make_scheduler("starpu", 16, policy="ws"), "ws"),
    (lambda: _SubclassedQuark(16), "_SubclassedQuark"),
]


class TestBackendSelection:
    def test_unsupported_reasons(self):
        assert array_backend_unsupported(make_scheduler("quark", 4)) is None
        assert array_backend_unsupported(make_scheduler("ompss", 4)) is None
        assert array_backend_unsupported(make_scheduler("starpu", 4)) is None
        assert array_backend_unsupported(make_scheduler("starpu", 4, policy="prio")) is None
        for make, fragment in OBJECT_ONLY:
            assert fragment in array_backend_unsupported(make())

    def test_fallback_records_reason_and_preserves_trace(self):
        program = cholesky_program(6, 200)
        models = synthetic_models(program)
        for make, fragment in OBJECT_ONLY:
            metrics = RunMetrics()
            trace = simulate(program, make(), models, seed=3, metrics=metrics)
            oracle = _simulate_on(Engine, program, make(), models, seed=3)
            assert dumps_trace(trace) == dumps_trace(oracle)
            record = metrics.extra["engine_backend"]
            assert set(record) == {"used", "fallback_reason"}
            assert record["used"] == "object"
            assert fragment in record["fallback_reason"]

    def test_array_run_records_backend_used(self):
        program = cholesky_program(4, 100)
        models = synthetic_models(program)
        stock = [
            make_scheduler("quark", 4),
            make_scheduler("ompss", 4),
            make_scheduler("starpu", 4, policy="eager"),
            make_scheduler("starpu", 4, policy="prio"),
        ]
        for scheduler in stock:
            metrics = RunMetrics()
            simulate(program, scheduler, models, seed=0, metrics=metrics)
            assert metrics.extra["engine_backend"] == {"used": "array"}, scheduler
        metrics = RunMetrics()
        run_real(program, make_scheduler("quark", 4), "magny_cours_48", metrics=metrics)
        assert metrics.extra["engine_backend"] == {"used": "array"}


class TestRunSpec:
    """Spec documents written while ``RunSpec`` had ``engine_backend``."""

    def _doc(self, **legacy):
        spec = RunSpec(
            program=ProgramSpec("cholesky", 4, 100),
            scheduler=SchedulerSpec("quark", 16),
            machine="magny_cours_48",
            seed=0,
            mode="real",
        )
        return spec, {**spec.to_dict(), **legacy}

    def test_object_backend_keeps_historical_cache_key(self):
        # The field named one of two engines with the same trace: old
        # documents load without it and keep every cache entry valid.
        spec, doc = self._doc(engine_backend="object")
        loaded = RunSpec.from_dict(doc)
        assert loaded == spec
        assert "engine_backend" not in loaded.to_dict()
        assert loaded.cache_key() == spec.cache_key()

    def test_invalid_backend_rejected(self):
        _, doc = self._doc(engine_backend="vectorized")
        with pytest.raises(ValueError, match="engine_backend"):
            RunSpec.from_dict(doc)


# -- SoA construction and trace columns -------------------------------------
class TestSoAProgram:
    def test_for_program_caches_per_program(self):
        program = cholesky_program(4, 100)
        first = SoAProgram.for_program(program)
        assert SoAProgram.for_program(program) is first
        # keep_preds=True needs the dependence tuples; a cached build
        # without them cannot satisfy it.
        with_preds = SoAProgram.for_program(program, keep_preds=True)
        assert with_preds.preds_tuples is not None
        assert SoAProgram.for_program(program) is with_preds

    def test_cache_invalidated_by_append(self):
        program = Program("grow")
        ref = program.registry.alloc("T", 64, key=("T", 0))
        program.add_task("DGEMM", [ref.write()], flops=1.0)
        first = SoAProgram.for_program(program)
        program.add_task("DGEMM", [ref.write()], flops=1.0)
        second = SoAProgram.for_program(program)
        assert second is not first
        assert second.n_tasks == 2

    def test_wide_task_beyond_workers_raises(self):
        program = Program("wide")
        ref = program.registry.alloc("T", 64, key=("T", 0))
        program.add_task("DGEMM", [ref.write()], flops=1.0).width = 8
        models = synthetic_models(program)
        with pytest.raises(ValueError, match="width"):
            _simulate_on(ArrayEngine, program, make_scheduler("quark", 4), models, seed=0)


class TestColumnTrace:
    def _array_trace(self):
        program = cholesky_program(4, 100)
        models = synthetic_models(program)
        return _simulate_on(
            ArrayEngine, program, make_scheduler("quark", 8), models, seed=5
        ), len(program)

    def test_lazy_columns_serve_len_and_makespan(self):
        trace, n_tasks = self._array_trace()
        assert isinstance(trace, ColumnTrace)
        assert trace._cols is not None  # not yet materialized
        assert len(trace) == n_tasks
        assert trace.makespan > 0.0
        assert trace._cols is not None  # still lazy after both reads

    def test_materialized_events_are_plain_python(self):
        trace, n_tasks = self._array_trace()
        events = trace.events
        assert len(events) == n_tasks
        for e in events[:10]:
            assert type(e.task_id) is int
            assert type(e.worker) is int
            assert type(e.start) is float
            assert type(e.end) is float


# -- calibrated model sets (repro.calib) ------------------------------------
class TestCalibratedModels:
    """The calibration layer must not break the headline byte-identity.

    Mixture/KDE models sample via one inverse-CDF draw per task
    (``rng_use == "other"``), which keeps the calibrated model set
    non-batchable — both engines fall back to the per-call DirectSampler,
    so byte identity has to hold with no engine-side special cases.
    """

    @pytest.fixture(scope="class")
    def calibrated(self):
        from repro.calib import fit_from_samples
        from repro.machine import collect_samples

        program = cholesky_program(6, 200)
        trace = run_real(
            program, make_scheduler("quark", 16), "magny_cours_48", seed=3
        )
        document = fit_from_samples(collect_samples(trace))
        return program, document

    def test_refit_selects_nontrivial_families(self, calibrated):
        _, document = calibrated
        models = document.to_model_set()
        assert models.family == "calibrated"
        # Noisy-machine samples must not all collapse to constants, and the
        # set must refuse batch sampling (that is what keeps the engines on
        # the shared per-call path).
        assert any(f.family != "constant" for f in document.kernels.values())
        assert not models.batchable

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_array_identical_to_object_under_calibration(
        self, calibrated, scheduler, core_variant
    ):
        program, document = calibrated
        traces = {
            name: _simulate_on(
                engine_cls,
                program,
                make_scheduler(scheduler, 16),
                document.to_model_set(),
                seed=99,
                warmup_penalty=1e-3,
            )
            for name, engine_cls in ENGINES.items()
        }
        assert dumps_trace(traces["object"]) == dumps_trace(traces["array"])

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_refit_reproduces_makespan_within_5_percent(self, scheduler):
        # The differential claim behind ``sweep --calibration``: models
        # refit from a run's own samples must predict that workload's
        # makespan inside the paper's 5% accuracy band, on every scheduler.
        from repro.calib import fit_from_samples
        from repro.machine import collect_samples, get_machine

        machine = get_machine("magny_cours_48")
        program = cholesky_program(8, 200)
        real = run_real(program, make_scheduler(scheduler, 16), machine, seed=11)
        models = fit_from_samples(collect_samples(real)).to_model_set()
        sims = [
            simulate(
                program,
                make_scheduler(scheduler, 16),
                models,
                seed=12 + s,
                warmup_penalty=machine.warmup_penalty,
            ).makespan
            for s in range(3)  # mean-of-3, like the portfolio oracle
        ]
        sim = sum(sims) / len(sims)
        err = abs(sim - real.makespan) / real.makespan
        assert err < 0.05, f"{scheduler}: calibrated sim off by {err * 100:.2f}%"


# -- compiled core provenance -----------------------------------------------
def _build_tool():
    """``tools/build_array_core.py``, imported from the checkout."""
    spec = importlib.util.spec_from_file_location(
        "build_array_core", ROOT / "tools" / "build_array_core.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompiledCoreStamp:
    """The loader runs only a library built from the source next to it."""

    def test_loaded_state_is_explained(self):
        assert (_array_core.RUN_SERIALIZED is None) == (
            _array_core.UNAVAILABLE_REASON is not None
        )
        assert USING_COMPILED_CORE == (_array_core.RUN_SERIALIZED is not None)

    def test_missing_library_leaves_python_loop_on_golden(self, tmp_path, monkeypatch):
        fn, reason = _array_core._load(str(tmp_path / "absent.so"), _array_core.source_path())
        assert fn is None and "not built" in reason
        monkeypatch.setattr(array_engine_module, "_c_run", fn)
        program = cholesky_program(8, 200)
        trace = simulate(
            program, make_scheduler("ompss", 16), synthetic_models(program),
            seed=1234, warmup_penalty=1e-3,
        )
        assert _digest(trace) == DIGESTS["sim/cholesky/ompss/nt8"]

    def test_stale_or_unstamped_library_is_refused(self, tmp_path, monkeypatch):
        tool = _build_tool()
        cc = tool.find_compiler()
        if cc is None:
            pytest.skip("no C compiler to build test libraries with")
        source = _array_core.source_path()
        good, stale = str(tmp_path / "good.so"), str(tmp_path / "stale.so")
        assert tool.compile_core(cc, source, good, tool.source_sha256(source)) == 0
        assert tool.compile_core(cc, source, stale, "0" * 64) == 0
        # A library from before stamping exports the entry point only.
        old_src = tmp_path / "old.c"
        old_src.write_text("int repro_run_serialized(void) { return 0; }\n")
        old = str(tmp_path / "old.so")
        assert tool.compile_core(cc, str(old_src), old, "") == 0

        fn, reason = _array_core._load(good, source)
        assert fn is not None and reason is None
        fn, reason = _array_core._load(stale, source)
        assert fn is None and "another source" in reason
        fn, reason = _array_core._load(old, source)
        assert fn is None and "no source stamp" in reason

        # A refused core leaves the engine on its Python loop, on golden.
        monkeypatch.setattr(array_engine_module, "_c_run", fn)
        program = qr_program(8, 200)
        trace = simulate(
            program, make_scheduler("starpu", 16), synthetic_models(program),
            seed=1234, warmup_penalty=1e-3,
        )
        assert _digest(trace) == DIGESTS["sim/qr/starpu/nt8"]

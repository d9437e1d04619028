"""ctypes loader for the optional compiled array-engine core.

``_array_core.c`` compiles to a plain shared library (no Python.h, no
Cython) sitting next to this module as ``lib_array_core.so`` — named so the
import system never mistakes it for an extension module; build it with
``python tools/build_array_core.py``.  When the library is absent, fails
to load, or was compiled from a different source than the ``_array_core.c``
next to it (its ``repro_core_source_sha256()`` stamp differs),
:data:`RUN_SERIALIZED` is ``None``, :data:`UNAVAILABLE_REASON` says why,
and the array engine runs its pure-Python event loop — same results, lower
throughput.

The exported entry point runs the entire serialized simulation over flat
numpy buffers and fills per-event output columns plus a counter block; see
the C source for the exact contract (return codes, counter indices).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = ["RUN_SERIALIZED", "UNAVAILABLE_REASON", "N_COUNTERS", "lib_path", "source_path"]

#: Size of the int64 counter block the C core fills (see _array_core.c).
N_COUNTERS = 12

_i32 = ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_i64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_f64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")


def lib_path() -> str:
    """Where the compiled core is expected to live."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "lib_array_core.so")


def source_path() -> str:
    """The C source the compiled core must have been built from."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_array_core.c")


def _load(path: str, source: str) -> Tuple[Optional[Callable[..., int]], Optional[str]]:
    """``(entry point, None)``, or ``(None, why the library is not used)``."""
    if not os.path.exists(path):
        return None, f"{os.path.basename(path)} is not built (python tools/build_array_core.py)"
    try:
        with open(source, "rb") as fh:
            expected = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        return None, f"cannot read {source} to check the library's stamp: {exc}"
    try:
        lib = ctypes.CDLL(path)
        fn = lib.repro_run_serialized
        stamp_fn = lib.repro_core_source_sha256
    except AttributeError:
        return None, f"{path} carries no source stamp; rebuild it"
    except OSError as exc:
        return None, f"cannot load {path}: {exc}"
    stamp_fn.restype = ctypes.c_char_p
    stamp_fn.argtypes = []
    stamp = (stamp_fn() or b"").decode("ascii", "replace")
    if stamp != expected:
        return None, (
            f"{path} was built from another source (stamp {stamp[:12] or 'empty'}, "
            f"source {expected[:12]}); rebuild it"
        )
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_int64,  # n_tasks
        ctypes.c_int32,  # n_workers
        _i32,  # kernel_ids
        _i32,  # widths
        _i64,  # priorities
        _i64,  # deps_left (mutated scratch copy)
        _i64,  # succ_indptr
        _i32,  # succ_indices
        _i32,  # tf_kind (per kernel id)
        _f64,  # tf_a
        _f64,  # tf_b
        _f64,  # zs
        ctypes.c_double,  # warmup_penalty
        ctypes.c_int32,  # master_is_worker
        ctypes.c_int64,  # window
        ctypes.c_double,  # insert_cost
        ctypes.c_double,  # dispatch_overhead
        ctypes.c_double,  # completion_cost
        ctypes.c_int32,  # queue_kind (0 fifo / 1 priority / 2 lifo)
        ctypes.c_int32,  # bounce_enabled
        _i32,  # out_worker
        _i32,  # out_tid
        _f64,  # out_start
        _f64,  # out_end
        _i64,  # counters[N_COUNTERS]
    ]
    return fn, None


#: The compiled entry point, or ``None`` when no usable library is built;
#: then :data:`UNAVAILABLE_REASON` says why.
RUN_SERIALIZED, UNAVAILABLE_REASON = _load(lib_path(), source_path())

"""Structure-of-arrays program layout for the array-native engine.

The object engine (:mod:`repro.schedulers.engine`) spends most of a run
churning per-task Python objects: ``TaskNode`` attribute access and
per-insert hazard analysis through
:class:`~repro.schedulers.taskdep.HazardTracker`.  This module provides the
flat data layer the array-native engine
(:mod:`repro.schedulers.array_engine`) runs on — the ScaleSimulator
approach of keeping simulation state in contiguous arrays so the event loop
touches integers and floats, never objects.

:class:`SoAProgram` is a one-shot conversion of a
:class:`~repro.core.task.Program` into numpy arrays: per-task kernel ids,
priorities, widths, static dependency counts, and the successor graph in
CSR form.  The hazard pass (RaW/WaW/WaR over data addresses) runs once up
front instead of once per inserted task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .task import Program, TaskSpec

__all__ = [
    "SoAProgram",
    "NOT_INSERTED",
    "WAITING",
    "READY",
    "RUNNING",
    "DONE",
]


# Integer task states for the SoA engine.  Values are ordered like the
# object engine's TaskState lifecycle; NOT_INSERTED must stay 0 so a fresh
# zeroed state array means "nothing inserted yet".
NOT_INSERTED = 0
WAITING = 1
READY = 2
RUNNING = 3
DONE = 4


class SoAProgram:
    """A :class:`~repro.core.task.Program` flattened into numpy arrays.

    The conversion runs the full hazard analysis (the same RaW/WaW/WaR
    rules as :class:`~repro.schedulers.taskdep.HazardTracker`, keyed on
    ``DataRef.addr``) once, ahead of simulation, producing:

    ``kernel_ids`` / ``kernel_names``
        Per-task kernel as an index into the unique-name table (first
        appearance order), so the hot loop compares ints, not strings.
    ``priorities`` / ``widths`` / ``labels``
        Scheduling inputs lifted out of ``TaskSpec``.
    ``n_preds``
        Static in-degree of each task — the total number of distinct
        predecessor tasks its accesses hazard against.
    ``succ_indptr`` / ``succ_indices``
        The successor graph in CSR form; ``succ_indices[indptr[i]:
        indptr[i+1]]`` lists task ``i``'s successors in ascending task id —
        the same order the object engine discovers them, because tasks are
        inserted (and therefore appended to predecessor lists) in id order.
    ``preds_tuples``
        Sorted predecessor tuples per task, built only when
        ``keep_preds=True`` (the array engine needs them to replay the
        ``task_deps`` probe hook byte-for-byte).
    """

    __slots__ = (
        "n_tasks",
        "specs",
        "kernel_names",
        "kernel_ids",
        "priorities",
        "widths",
        "labels",
        "n_preds",
        "succ_indptr",
        "succ_indices",
        "preds_tuples",
        "max_width",
    )

    def __init__(self, program: "Program", *, keep_preds: bool = False) -> None:
        specs: List["TaskSpec"] = list(program)
        n = len(specs)
        self.n_tasks = n
        self.specs = specs

        kernel_index: Dict[str, int] = {}
        kernel_ids = np.empty(n, dtype=np.int32)
        priorities = np.empty(n, dtype=np.int64)
        widths = np.empty(n, dtype=np.int32)
        labels: List[str] = []

        # Hazard state per data address, mirroring HazardTracker._RefState:
        # the last writer (or -1) and the readers since that write.
        last_writer: Dict[int, int] = {}
        readers: Dict[int, Set[int]] = {}
        n_preds = np.zeros(n, dtype=np.int64)
        succs: List[List[int]] = [[] for _ in range(n)]
        preds_tuples: Optional[List[Tuple[int, ...]]] = [() for _ in range(n)] if keep_preds else None

        for tid, spec in enumerate(specs):
            kid = kernel_index.setdefault(spec.kernel, len(kernel_index))
            kernel_ids[tid] = kid
            priorities[tid] = spec.priority
            widths[tid] = spec.width
            labels.append(spec.label)

            preds: Set[int] = set()
            accesses = spec.accesses
            # Pass 1: collect hazards against the pre-task state.
            for acc in accesses:
                reads, writes = acc.mode.rw_flags
                addr = acc.ref.addr
                lw = last_writer.get(addr, -1)
                if reads and lw >= 0 and lw != tid:
                    preds.add(lw)
                if writes:
                    if lw >= 0 and lw != tid:
                        preds.add(lw)
                    for r in readers.get(addr, ()):
                        if r != tid:
                            preds.add(r)
            # Pass 2: advance the state with this task's own accesses.
            for acc in accesses:
                reads, writes = acc.mode.rw_flags
                addr = acc.ref.addr
                if writes:
                    last_writer[addr] = tid
                    rd = readers.get(addr)
                    if rd is not None:
                        rd.clear()
                elif reads:
                    readers.setdefault(addr, set()).add(tid)
            n_preds[tid] = len(preds)
            for p in preds:
                succs[p].append(tid)
            if preds_tuples is not None:
                preds_tuples[tid] = tuple(sorted(preds))

        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum([len(s) for s in succs], out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        for tid, s in enumerate(succs):
            indices[indptr[tid] : indptr[tid + 1]] = s

        self.kernel_names: List[str] = list(kernel_index)
        self.kernel_ids = kernel_ids
        self.priorities = priorities
        self.widths = widths
        self.labels = labels
        self.n_preds = n_preds
        self.succ_indptr = indptr
        self.succ_indices = indices
        self.preds_tuples = preds_tuples
        self.max_width = int(widths.max()) if n else 1

    def initial_ready_mask(self) -> np.ndarray:
        """Boolean mask of tasks with no static predecessors."""
        return self.n_preds == 0

    @classmethod
    def for_program(cls, program: "Program", *, keep_preds: bool = False) -> "SoAProgram":
        """Cached conversion of ``program``, rebuilt only when it grows.

        The flat arrays are immutable once built and programs are
        append-only (``task_id`` is assigned serially at :meth:`Program.add`
        time), so a previous conversion is reused whenever the task count
        still matches — which hoists the hazard pass out of repeated runs of
        the same program (benchmark repeats, parameter sweeps).  A
        ``keep_preds=True`` build is a superset and satisfies later
        ``keep_preds=False`` requests.
        """
        cached = getattr(program, "_soa_cache", None)
        if (
            cached is not None
            and cached.n_tasks == len(program)
            and (not keep_preds or cached.preds_tuples is not None)
        ):
            return cached
        soa = cls(program, keep_preds=keep_preds)
        try:
            program._soa_cache = soa
        except AttributeError:  # pragma: no cover - slotted Program stand-ins
            pass
        return soa

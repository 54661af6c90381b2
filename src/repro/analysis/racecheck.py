"""Dynamic write-set race detector for the reduction strategies.

The static checker (:mod:`repro.core.conflict`) proves a *planned*
``ColorSchedule`` conflict-free before execution; this module verifies the
same property **during real execution on any backend**.  A
:class:`WriteRecorder` is attached both as the strategies' array
instrument (so the reduction arrays they allocate become
:class:`~repro.analysis.shadow.ShadowArray` recorders) and as the
backend's :class:`~repro.parallel.backends.base.PhaseObserver` (so every
recorded write is attributed to the task and phase that issued it).  At
every phase barrier it checks:

* **intra-phase disjointness** — no element written by two tasks of the
  same phase (the paper's "data spaces updated by threads do not overlap");
* **torn/stray-write canaries** — elements *not* in any task's recorded
  write set must be bit-identical to their phase-begin snapshot, and each
  array's checksum is logged per phase.

**Granularity.**  The detector sees *executed tasks*.  An SDC task is one
worker's share of a color — the contiguous range of its static chunk's
subdomains (:mod:`repro.core.sdc_plan`), on threads as on processes — so
what is verified here is the executed schedule: no two *workers* touch the
same element between two barriers.  Two conflicting subdomains inside one
worker's chunk run in sequence; that is not a race and is not reported.
The paper's own guarantee, same-color *subdomains* write disjoint atoms,
is the static checker's job at subdomain granularity
(:func:`~repro.core.conflict.check_schedule_conflicts`,
``SDCStrategy(validate_conflicts=True)``), whatever the worker count.  A
schedule one task wide (``n_threads=1``) has nothing to race with.

:func:`run_racecheck` drives a strategy × workload combination end to end
(including the fork-based shared-memory process path), compares the result
against the serial reference kernels, and returns a JSON-serializable
:class:`RaceCheckReport` — the engine behind ``repro racecheck``.
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.shadow import ShadowArray, wrap_array
from repro.core.schedule import ColorSchedule
from repro.core.domain import SubdomainGrid, decompose
from repro.core.strategies import STRATEGY_REGISTRY, ReductionStrategy
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList, build_neighbor_list
from repro.parallel.backends.base import ExecutionBackend, PhaseObserver
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.threads import ThreadBackend
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation, compute_eam_forces_serial
from repro.potentials.johnson_fe import fe_potential

__all__ = [
    "RaceConflict",
    "CanaryViolation",
    "PhaseRecord",
    "RaceCheckReport",
    "WriteRecorder",
    "run_instrumented",
    "run_racecheck",
    "sweep_racecheck",
    "merge_color_phases",
    "undersized_grid_factory",
    "injection_kwargs",
    "INJECTION_NAMES",
    "WORKLOAD_NAMES",
    "build_workload",
    "make_strategy",
]


# --------------------------------------------------------------------------
# report structures
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RaceConflict:
    """One element written by two tasks of the same phase."""

    phase: int
    task_a: int
    task_b: int
    index: int
    array: str

    @property
    def as_tuple(self) -> Tuple[int, int, int, int]:
        """The offending ``(phase, task_a, task_b, index)`` tuple."""
        return (self.phase, self.task_a, self.task_b, self.index)


@dataclass(frozen=True)
class CanaryViolation:
    """Elements outside every recorded write set changed during a phase."""

    phase: int
    array: str
    n_elements: int
    first_indices: Tuple[int, ...]


@dataclass(frozen=True)
class PhaseRecord:
    """Per-phase accounting: writes, checksums, verdicts."""

    phase: int
    n_tasks: int
    n_written: int
    checksums: Dict[str, int]
    n_conflicts: int
    canary_ok: bool


@dataclass
class RaceCheckReport:
    """Outcome of one instrumented strategy × workload execution."""

    strategy: str
    workload: str
    backend: str
    #: whether the strategy claims lock-free disjoint writes (conflicts
    #: are a failure) or synchronizes internally (overlaps are expected)
    lock_free: bool
    n_phases: int = 0
    phases: List[PhaseRecord] = field(default_factory=list)
    conflicts: List[RaceConflict] = field(default_factory=list)
    n_conflicting_elements: int = 0
    canary_violations: List[CanaryViolation] = field(default_factory=list)
    max_force_error: Optional[float] = None
    max_rho_error: Optional[float] = None
    energy_error: Optional[float] = None
    tolerance: float = 1e-8
    notes: List[str] = field(default_factory=list)

    @property
    def race_free(self) -> bool:
        """No same-phase write overlap was observed."""
        return self.n_conflicting_elements == 0

    @property
    def canary_ok(self) -> bool:
        """No unrecorded mutation was observed."""
        return not self.canary_violations

    @property
    def equivalent(self) -> bool:
        """Result matches the serial reference (True when not compared)."""
        errors = (self.max_force_error, self.max_rho_error, self.energy_error)
        return all(e is None or e <= self.tolerance for e in errors)

    @property
    def ok(self) -> bool:
        """The run is clean for this strategy's synchronization contract."""
        races_ok = self.race_free or not self.lock_free
        return races_ok and self.canary_ok and self.equivalent

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "workload": self.workload,
            "backend": self.backend,
            "lock_free": self.lock_free,
            "ok": self.ok,
            "race_free": self.race_free,
            "canary_ok": self.canary_ok,
            "equivalent": self.equivalent,
            "n_phases": self.n_phases,
            "n_conflicting_elements": int(self.n_conflicting_elements),
            "conflicts": [
                {
                    "phase": c.phase,
                    "task_a": c.task_a,
                    "task_b": c.task_b,
                    "index": c.index,
                    "array": c.array,
                }
                for c in self.conflicts
            ],
            "canary_violations": [
                {
                    "phase": v.phase,
                    "array": v.array,
                    "n_elements": v.n_elements,
                    "first_indices": list(v.first_indices),
                }
                for v in self.canary_violations
            ],
            "phases": [
                {
                    "phase": p.phase,
                    "n_tasks": p.n_tasks,
                    "n_written": p.n_written,
                    "checksums": p.checksums,
                    "n_conflicts": p.n_conflicts,
                    "canary_ok": p.canary_ok,
                }
                for p in self.phases
            ],
            "max_force_error": self.max_force_error,
            "max_rho_error": self.max_rho_error,
            "energy_error": self.energy_error,
            "tolerance": self.tolerance,
            "notes": self.notes,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _conflicts_among(
    write_sets: Sequence[Tuple[int, np.ndarray]],
    phase: int,
    array: str,
    max_reported: int,
) -> Tuple[List[RaceConflict], int]:
    """Pairwise-overlap scan over per-task unique write sets."""
    if len(write_sets) < 2:
        return [], 0
    indices = np.concatenate([w for _, w in write_sets])
    owners = np.concatenate(
        [np.full(len(w), t, dtype=np.int64) for t, w in write_sets]
    )
    order = np.argsort(indices, kind="stable")
    indices = indices[order]
    owners = owners[order]
    dup = np.flatnonzero(indices[1:] == indices[:-1])
    conflicts = [
        RaceConflict(
            phase=phase,
            task_a=int(owners[p]),
            task_b=int(owners[p + 1]),
            index=int(indices[p]),
            array=array,
        )
        for p in dup[:max_reported]
    ]
    return conflicts, len(dup)


# --------------------------------------------------------------------------
# the recorder
# --------------------------------------------------------------------------


class WriteRecorder(PhaseObserver):
    """Shadow-array recorder + phase observer = the dynamic detector.

    Use :meth:`wrap` (usually via ``ReductionStrategy._array``) to shadow
    each reduction array, attach the same instance to the strategy's
    backend, run ``compute``, then read :meth:`report`.

    Parameters
    ----------
    check_untouched:
        snapshot each registered array at phase begin and verify elements
        outside every recorded write set are bit-identical at phase end
        (the torn/stray-write canary).  Costs one copy per array per
        phase — cheap at demo sizes, disable for large sweeps.
    max_reported:
        cap on materialized :class:`RaceConflict` records (counts are
        always exact).
    """

    def __init__(
        self, check_untouched: bool = True, max_reported: int = 64
    ) -> None:
        self.check_untouched = check_untouched
        self.max_reported = max_reported
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._arrays: Dict[str, np.ndarray] = {}
        self._baselines: Dict[str, np.ndarray] = {}
        self._task_writes: Dict[int, Dict[str, List[np.ndarray]]] = {}
        self._serial_writes: Dict[str, List[np.ndarray]] = {}
        self._phase_open = False
        self._phase = -1
        self._n_tasks = 0
        self.phases: List[PhaseRecord] = []
        self.conflicts: List[RaceConflict] = []
        self.canary_violations: List[CanaryViolation] = []
        self.n_conflicting_elements = 0

    # --- array registration (the strategy instrument side) --------------------

    def wrap(self, name: str, array: np.ndarray) -> ShadowArray:
        """Shadow ``array`` under ``name`` and start recording its writes."""
        with self._lock:
            if name in self._arrays:
                raise ValueError(f"array {name!r} already wrapped")
            shadow = wrap_array(array, name, self)
            root = shadow._root
            assert root is not None
            self._arrays[name] = root
            if self._phase_open and self.check_untouched:
                self._baselines[name] = root.copy()
        return shadow

    def record_write(self, name: str, flat: np.ndarray) -> None:
        """ShadowArray callback: ``flat`` root elements were written."""
        if not self._phase_open:
            # serial region between phases (merges, finalize) — no race
            return
        task = getattr(self._tls, "task", None)
        flat = np.asarray(flat, dtype=np.int64)
        with self._lock:
            bucket = (
                self._serial_writes
                if task is None
                else self._task_writes.setdefault(task, {})
            )
            bucket.setdefault(name, []).append(flat.copy())

    # --- PhaseObserver ---------------------------------------------------------

    def on_phase_begin(self, phase: int, n_tasks: int) -> None:
        with self._lock:
            self._phase_open = True
            self._phase = phase
            self._n_tasks = n_tasks
            self._task_writes = {}
            self._serial_writes = {}
            if self.check_untouched:
                self._baselines = {
                    name: root.copy() for name, root in self._arrays.items()
                }

    def on_task_begin(self, phase: int, task: int) -> None:
        self._tls.task = task

    def on_task_end(self, phase: int, task: int) -> None:
        self._tls.task = None

    def on_phase_end(self, phase: int) -> None:
        with self._lock:
            self._settle_phase(phase)
            self._phase_open = False

    def _settle_phase(self, phase: int) -> None:
        n_written_total = 0
        n_conflicts_phase = 0
        checksums: Dict[str, int] = {}
        canary_ok = True
        for name, root in self._arrays.items():
            per_task = [
                (task, np.unique(np.concatenate(writes[name])))
                for task, writes in sorted(self._task_writes.items())
                if name in writes
            ]
            room = max(self.max_reported - len(self.conflicts), 0)
            found, n_dup = _conflicts_among(per_task, phase, name, room)
            self.conflicts.extend(found)
            self.n_conflicting_elements += n_dup
            n_conflicts_phase += n_dup

            touched_parts = [w for _, w in per_task]
            touched_parts.extend(
                np.unique(np.concatenate(chunks))
                for key, chunks in self._serial_writes.items()
                if key == name
            )
            touched = (
                np.unique(np.concatenate(touched_parts))
                if touched_parts
                else np.empty(0, dtype=np.int64)
            )
            n_written_total += len(touched)

            if self.check_untouched and name in self._baselines:
                flat_now = root.ravel()
                flat_then = self._baselines[name].ravel()
                untouched = np.ones(flat_now.size, dtype=bool)
                untouched[touched] = False
                changed = np.flatnonzero(
                    untouched & (flat_now != flat_then)
                )
                if len(changed):
                    canary_ok = False
                    self.canary_violations.append(
                        CanaryViolation(
                            phase=phase,
                            array=name,
                            n_elements=len(changed),
                            first_indices=tuple(
                                int(i) for i in changed[:8]
                            ),
                        )
                    )
            checksums[name] = zlib.crc32(np.ascontiguousarray(root).tobytes())
        self.phases.append(
            PhaseRecord(
                phase=phase,
                n_tasks=self._n_tasks,
                n_written=n_written_total,
                checksums=checksums,
                n_conflicts=n_conflicts_phase,
                canary_ok=canary_ok,
            )
        )

    # --- report ----------------------------------------------------------------

    def report(
        self,
        strategy: str = "?",
        workload: str = "?",
        backend: str = "?",
        lock_free: bool = True,
        tolerance: float = 1e-8,
    ) -> RaceCheckReport:
        """Assemble what was recorded into a :class:`RaceCheckReport`."""
        return RaceCheckReport(
            strategy=strategy,
            workload=workload,
            backend=backend,
            lock_free=lock_free,
            n_phases=len(self.phases),
            phases=list(self.phases),
            conflicts=list(self.conflicts),
            n_conflicting_elements=self.n_conflicting_elements,
            canary_violations=list(self.canary_violations),
            tolerance=tolerance,
        )


def run_instrumented(
    strategy: ReductionStrategy,
    potential: EAMPotential,
    atoms: Atoms,
    nlist: NeighborList,
    recorder: Optional[WriteRecorder] = None,
) -> Tuple[EAMComputation, WriteRecorder]:
    """Run ``strategy.compute`` with the detector attached, then detach."""
    recorder = recorder or WriteRecorder()
    backend = getattr(strategy, "backend", None)
    strategy.attach_instrument(recorder)
    if isinstance(backend, ExecutionBackend):
        backend.attach_observer(recorder)
    try:
        result = strategy.compute(potential, atoms, nlist)
    finally:
        strategy.detach_instrument()
        if isinstance(backend, ExecutionBackend):
            backend.detach_observer()
    return result, recorder


# --------------------------------------------------------------------------
# fault injection (racecheck's negative paths)
# --------------------------------------------------------------------------


def merge_color_phases(schedule: ColorSchedule, first: int = 0) -> ColorSchedule:
    """Merge color phases ``first`` and ``first + 1`` — a dropped barrier.

    The returned schedule runs the two colors' subdomains concurrently,
    which violates the SDC disjointness guarantee whenever they are
    spatial neighbors.
    """
    if not 0 <= first < len(schedule.phases) - 1:
        raise ValueError(
            f"cannot merge phases {first},{first + 1} of "
            f"{len(schedule.phases)}"
        )
    phases = list(schedule.phases)
    merged = np.concatenate([phases[first], phases[first + 1]])
    phases[first : first + 2] = [merged]
    return ColorSchedule(coloring=schedule.coloring, phases=phases)


def undersized_grid_factory(
    dims: int = 2, factor: int = 2
) -> Callable[[object, float], SubdomainGrid]:
    """A grid factory whose subdomain edges violate ``> 2 * reach``.

    It doubles (``factor``-multiplies) the per-axis counts of the largest
    safe decomposition and understates ``reach`` to slip past the
    :class:`SubdomainGrid` constructor guard — same-color subdomains then
    sit close enough for their halos to overlap.
    """
    if factor < 2:
        raise ValueError("factor must be >= 2 to break the edge constraint")

    def factory(box, reach: float) -> SubdomainGrid:
        safe = decompose(box, reach, dims)
        counts = tuple(
            c * factor if c > 1 else 1 for c in safe.counts
        )
        edges = [
            box.lengths[a] / counts[a] for a in range(3) if counts[a] > 1
        ]
        fake_reach = 0.49 * min(edges)
        return SubdomainGrid(box=box, counts=counts, reach=fake_reach)

    return factory


INJECTION_NAMES = ("merge-colors", "drop-barrier", "small-subdomains")


def injection_kwargs(inject: Optional[str], dims: int) -> dict:
    """SDC constructor kwargs realizing a named schedule corruption."""
    if inject is None or inject == "none":
        return {}
    if inject == "merge-colors":
        return {"schedule_transform": merge_color_phases}
    if inject == "drop-barrier":
        # drop the last inter-color barrier instead of the first
        return {
            "schedule_transform": lambda s: merge_color_phases(
                s, len(s.phases) - 2
            )
        }
    if inject == "small-subdomains":
        return {"grid_factory": undersized_grid_factory(dims=dims)}
    raise ValueError(
        f"unknown injection {inject!r}; expected one of {INJECTION_NAMES}"
    )


# --------------------------------------------------------------------------
# drivers
# --------------------------------------------------------------------------

WORKLOAD_NAMES = ("uniform", "void", "slab")


def build_workload(name: str, cells: int, seed: int = 0) -> Atoms:
    """Construct a named racecheck workload."""
    from repro.harness.workloads import (
        crystal_slab,
        crystal_with_void,
        uniform_crystal,
    )

    if name == "uniform":
        return uniform_crystal(cells, seed=seed)
    if name == "void":
        return crystal_with_void(cells, void_fraction=0.12, seed=seed)
    if name == "slab":
        return crystal_slab(cells, cells, vacuum_factor=2.0, seed=seed)
    raise ValueError(
        f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}"
    )


def make_backend(kind: str, n_threads: int) -> ExecutionBackend:
    if kind == "serial":
        return SerialBackend()
    if kind == "threads":
        return ThreadBackend(n_threads)
    raise ValueError(f"unknown backend {kind!r}")


def make_strategy(
    name: str,
    n_threads: int = 4,
    backend: Optional[ExecutionBackend] = None,
    dims: int = 2,
    inject: Optional[str] = None,
) -> ReductionStrategy:
    """Instantiate a registered strategy for instrumented execution."""
    try:
        cls = STRATEGY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; registered: "
            f"{sorted(STRATEGY_REGISTRY)}"
        ) from None
    if name == "serial":
        return cls()
    kwargs: dict = {"n_threads": n_threads, "backend": backend}
    if name in ("sdc", "localwrite"):
        kwargs["dims"] = dims
    if inject not in (None, "none"):
        if name != "sdc":
            raise ValueError("fault injection is only wired into sdc")
        if n_threads < 2:
            raise ValueError(
                "fault injection needs n_threads >= 2: a phase of one task "
                "has nothing to race with (see the module docstring)"
            )
        kwargs.update(injection_kwargs(inject, dims))
    return cls(**kwargs)


def _compare_to_reference(
    report: RaceCheckReport,
    result: EAMComputation,
    reference: EAMComputation,
) -> None:
    report.max_force_error = float(
        np.max(np.abs(result.forces - reference.forces))
    )
    report.max_rho_error = float(np.max(np.abs(result.rho - reference.rho)))
    scale = max(abs(reference.potential_energy), 1.0)
    report.energy_error = (
        abs(result.potential_energy - reference.potential_energy) / scale
    )


def run_racecheck(
    strategy: str = "sdc",
    workload: str = "uniform",
    cells: int = 6,
    backend: str = "serial",
    n_threads: int = 4,
    dims: int = 2,
    inject: Optional[str] = None,
    seed: int = 0,
    tolerance: float = 1e-8,
    potential: Optional[EAMPotential] = None,
    check_untouched: bool = True,
) -> RaceCheckReport:
    """Race-check one strategy on one workload; compare against serial.

    ``backend`` is ``serial``, ``threads`` or ``processes`` (the latter
    only for ``sdc``, via the fork + shared-memory calculator).
    """
    potential = potential or fe_potential()
    atoms = build_workload(workload, cells, seed)
    nlist = build_neighbor_list(
        atoms.positions, atoms.box, cutoff=potential.cutoff, skin=0.3, half=True
    )
    reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)

    if backend == "processes":
        return _run_racecheck_processes(
            strategy, workload, cells, n_threads, dims, inject,
            potential, atoms, nlist, reference, tolerance,
        )

    strat = make_strategy(strategy, n_threads, make_backend(backend, n_threads), dims, inject)
    try:
        result, recorder = run_instrumented(
            strat, potential, atoms.copy(), nlist,
            recorder=WriteRecorder(check_untouched=check_untouched),
        )
    finally:
        strat_backend = getattr(strat, "backend", None)
        if isinstance(strat_backend, ExecutionBackend):
            strat_backend.close()
    report = recorder.report(
        strategy=strategy,
        workload=workload,
        backend=backend,
        lock_free=type(strat).lock_free,
        tolerance=tolerance,
    )
    if inject not in (None, "none"):
        report.notes.append(f"injected fault: {inject}")
    _compare_to_reference(report, result, reference)
    return report


def _run_racecheck_processes(
    strategy: str,
    workload: str,
    cells: int,
    n_workers: int,
    dims: int,
    inject: Optional[str],
    potential: EAMPotential,
    atoms: Atoms,
    nlist: NeighborList,
    reference: EAMComputation,
    tolerance: float,
) -> RaceCheckReport:
    from repro.parallel.backends.processes import ProcessSDCCalculator

    if strategy != "sdc":
        raise ValueError("the process backend race-checks sdc only")
    if inject not in (None, "none"):
        raise ValueError("fault injection is not wired into the process path")
    with ProcessSDCCalculator(
        dims=dims, n_workers=n_workers, record_writes=True
    ) as calc:
        result = calc.compute(potential, atoms.copy(), nlist)
        write_record = list(calc.last_write_record)
    report = RaceCheckReport(
        strategy=strategy,
        workload=workload,
        backend="processes",
        lock_free=True,
        tolerance=tolerance,
    )
    report.notes.append(
        "write sets recorded inside forked workers; canary snapshots are "
        "parent-side only and therefore skipped"
    )
    for phase, (kind, chunk_sets) in enumerate(write_record):
        per_task = [
            (task, np.asarray(flat, dtype=np.int64))
            for task, flat in enumerate(chunk_sets)
        ]
        array = "rho" if kind == "density" else "forces"
        found, n_dup = _conflicts_among(
            per_task, phase, array, max_reported=64
        )
        report.conflicts.extend(found)
        report.n_conflicting_elements += n_dup
        report.phases.append(
            PhaseRecord(
                phase=phase,
                n_tasks=len(per_task),
                n_written=int(sum(len(w) for _, w in per_task)),
                checksums={},
                n_conflicts=n_dup,
                canary_ok=True,
            )
        )
    report.n_phases = len(report.phases)
    _compare_to_reference(report, result, reference)
    return report


def sweep_racecheck(
    strategies: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    **kwargs,
) -> List[RaceCheckReport]:
    """The strategies × workloads sweep behind ``repro racecheck --all``."""
    strategies = list(
        strategies
        if strategies is not None
        else sorted(n for n in STRATEGY_REGISTRY if n != "serial")
    )
    workloads = list(workloads if workloads is not None else WORKLOAD_NAMES)
    return [
        run_racecheck(strategy=s, workload=w, **kwargs)
        for s in strategies
        for w in workloads
    ]

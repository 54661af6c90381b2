"""Backend conformance suite: the shared ExecutionBackend contract.

One parametrized suite over every substrate — serial, threads, and the
worker groups of the process engine core
(:mod:`repro.parallel.backends.workers`) in the three shapes the
calculators drive them: forked with a payload per worker (``processes``:
chunk ``k`` to worker ``k``), forked with a broadcast command
(``sharded``: one worker per shard) and in-process (``inline``).  Every
future substrate earns the same coverage by adding one row to
``BACKEND_FACTORIES``:

* ``run_phase`` barrier semantics (every closure settled at return),
* task-exception propagation vs :class:`BackendError` for worker death,
* observer hook ordering (``on_phase_begin`` strictly before the first
  ``on_task_begin``; ``on_phase_end`` after the last ``on_task_end``),
  detach stops the hooks, re-attach restarts the phase numbering,
* ``close()`` idempotence and rejection of phases after close,
* no ``/dev/shm`` residue.

Forked groups execute closures in child processes, so the suite's
counters live in an anonymous shared ``mmap`` — writes through plain
process-private arrays would be invisible to the parent.

``TestWorkerGroupLifecycle`` adds what only a persistent group has:
workers surviving across commands, ``stop()`` idempotence and rejection
of later commands, and a hung (not dead) worker surfacing as
:class:`BackendError` within the group's timeout.  ``TestArenaHandOver``
pins the arena's density → force hand-over fields.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.parallel.backends import (
    BackendError,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.parallel.backends.workers import (
    InlineGroup,
    WorkerGroup,
    portable_exception,
)

HAS_FORK = "fork" in mp.get_all_start_methods()

needs_fork = pytest.mark.skipif(HAS_FORK is False, reason="requires fork")



class GroupPhases(ExecutionBackend):
    """The closure-phase contract driven through a worker group.

    A group's handlers are fixed when it is spawned (a forked worker
    inherits them), so every phase spawns a group over that phase's
    closures, runs one command on it and stops it.  Task ``k`` runs on
    worker ``k % 2``.  Observer task hooks are replayed on the caller
    after the barrier — a forked worker cannot call back into the
    parent's observer.
    """

    N_WORKERS = 2

    def __init__(self, make_group, broadcast: bool) -> None:
        self._make_group = make_group
        self._broadcast = broadcast
        self._closed = False

    def _run_tasks(self, tasks) -> dict:
        """``{task index: exception}`` after every task settled."""
        n = min(self.N_WORKERS, len(tasks))
        shares = [list(range(k, len(tasks), n)) for k in range(n)]

        def handler_for(own):
            def handler(_command, indices):
                errors = {}
                for index in own if indices is None else indices:
                    try:
                        tasks[index]()
                    except Exception as exc:
                        errors[index] = portable_exception(exc)
                return errors

            return handler

        group = self._make_group([handler_for(own) for own in shares])
        try:
            replies = group.run("phase", None if self._broadcast else shares)
        finally:
            group.stop()
        return {k: exc for reply in replies for k, exc in reply.items()}

    def run_phase(self, closures) -> None:
        if self._closed:
            raise RuntimeError("backend already closed")
        tasks = list(closures)
        observer, phase = self._observer, self._phase_counter
        if observer is not None:
            self._phase_counter += 1
            observer.on_phase_begin(phase, len(tasks))
        try:
            errors = self._run_tasks(tasks) if tasks else {}
            if observer is not None:
                for index in range(len(tasks)):
                    observer.on_task_begin(phase, index)
                    observer.on_task_end(phase, index)
            if errors:
                raise errors[min(errors)]
        finally:
            if observer is not None:
                observer.on_phase_end(phase)

    def close(self) -> None:
        self._closed = True


def forked_group(handlers):
    return WorkerGroup(handlers, timeout_s=60.0)


BACKEND_FACTORIES = {
    "serial": lambda: SerialBackend(),
    "threads": lambda: ThreadBackend(2),
    "processes": lambda: GroupPhases(forked_group, broadcast=False),
    "sharded": lambda: GroupPhases(forked_group, broadcast=True),
    "inline": lambda: GroupPhases(InlineGroup, broadcast=True),
}

#: backends whose closures run in forked children (side effects need
#: shared memory; workers can actually die)
FORKED = ("processes", "sharded")

ALL_BACKENDS = [
    pytest.param(key, marks=needs_fork) if key in FORKED else key
    for key in BACKEND_FACTORIES
]


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    instance = BACKEND_FACTORIES[request.param]()
    yield instance
    instance.close()


def shared_slots(n: int):
    """A float64 array in an anonymous shared mapping (fork-visible).

    The array holds the mapping alive; the anonymous mapping is reclaimed
    with the process, so no explicit close is needed (closing while a
    NumPy view exists would raise ``BufferError`` anyway).
    """
    mm = mmap.mmap(-1, max(n * 8, mmap.PAGESIZE))
    return np.frombuffer(mm, dtype=np.float64, count=n)


class RecordingObserver:
    """Append-only log of every observer hook invocation."""

    def __init__(self) -> None:
        self.events = []

    def on_phase_begin(self, phase: int, n_tasks: int) -> None:
        self.events.append(("phase_begin", phase, n_tasks))

    def on_task_begin(self, phase: int, task: int) -> None:
        self.events.append(("task_begin", phase, task))

    def on_task_end(self, phase: int, task: int) -> None:
        self.events.append(("task_end", phase, task))

    def on_phase_end(self, phase: int) -> None:
        self.events.append(("phase_end", phase))


class TestBackendContract:
    def test_barrier_all_closures_settled(self, backend):
        """run_phase returns only after every closure executed."""
        slots = shared_slots(8)

        def writer(k):
            return lambda: slots.__setitem__(k, k + 1.0)

        backend.run_phase([writer(k) for k in range(8)])
        assert np.array_equal(slots, np.arange(1.0, 9.0))

    def test_usable_across_phases(self, backend):
        slots = shared_slots(2)
        backend.run_phase([lambda: slots.__setitem__(0, 1.0)])
        backend.run_phase([lambda: slots.__setitem__(1, 2.0)])
        assert slots[0] == 1.0 and slots[1] == 2.0

    def test_empty_phase_is_legal(self, backend):
        backend.run_phase([])

    def test_task_exception_propagates(self, backend):
        """A closure raising propagates the task's own exception type —
        not BackendError — and the backend stays usable."""

        def boom():
            raise ValueError("task boom")

        with pytest.raises(ValueError, match="task boom"):
            backend.run_phase([boom, lambda: None])
        backend.run_phase([lambda: None])

    def test_exception_does_not_break_barrier(self, backend):
        """Tasks after a raising one still run before the phase returns."""
        slots = shared_slots(4)

        def boom():
            raise RuntimeError("early task failed")

        def writer(k):
            return lambda: slots.__setitem__(k, 1.0)

        with pytest.raises(RuntimeError, match="early task failed"):
            backend.run_phase([boom, writer(1), writer(2), writer(3)])
        assert np.array_equal(slots[1:], np.ones(3))

    def test_observer_hook_ordering(self, backend):
        observer = RecordingObserver()
        backend.attach_observer(observer)
        try:
            backend.run_phase([lambda: None] * 3)
        finally:
            backend.detach_observer()
        events = observer.events
        kinds = [e[0] for e in events]
        assert kinds[0] == "phase_begin"
        assert events[0] == ("phase_begin", 0, 3)
        assert kinds[-1] == "phase_end"
        # phase_begin strictly before the first task_begin, phase_end
        # after the last task_end
        assert kinds.index("task_begin") > kinds.index("phase_begin")
        assert len(kinds) - 1 - kinds[::-1].index("task_end") < kinds.index(
            "phase_end", 1
        ) or kinds.index("phase_end") == len(kinds) - 1
        # every task gets a begin and a matching later end
        for task in range(3):
            begin = events.index(("task_begin", 0, task))
            end = events.index(("task_end", 0, task))
            assert begin < end
        assert kinds.count("task_begin") == 3
        assert kinds.count("task_end") == 3

    def test_observer_phase_end_fires_on_task_raise(self, backend):
        observer = RecordingObserver()
        backend.attach_observer(observer)

        def boom():
            raise ValueError("observed failure")

        try:
            with pytest.raises(ValueError):
                backend.run_phase([boom])
        finally:
            backend.detach_observer()
        kinds = [e[0] for e in observer.events]
        assert kinds[-1] == "phase_end"
        assert "task_end" in kinds  # on_task_end fires also on raise

    def test_detach_stops_recording(self, backend):
        observer = RecordingObserver()
        backend.attach_observer(observer)
        backend.run_phase([lambda: None])
        backend.detach_observer()
        seen = list(observer.events)
        backend.run_phase([lambda: None])
        assert observer.events == seen
        assert seen[0] == ("phase_begin", 0, 1)

    def test_reattach_restarts_phase_numbering(self, backend):
        observer = RecordingObserver()
        backend.attach_observer(observer)
        backend.run_phase([lambda: None])
        backend.run_phase([lambda: None])
        assert ("phase_begin", 1, 1) in observer.events
        observer.events.clear()
        backend.attach_observer(observer)
        try:
            backend.run_phase([lambda: None] * 2)
        finally:
            backend.detach_observer()
        assert [e for e in observer.events if e[0] == "phase_begin"] == [
            ("phase_begin", 0, 2)
        ]

    def test_close_idempotent(self, backend):
        backend.close()
        backend.close()

    def test_closed_backend_rejects_phases(self, backend):
        backend.close()
        with pytest.raises(RuntimeError):
            backend.run_phase([lambda: None])

    @pytest.mark.linux
    def test_no_dev_shm_residue(self, backend):
        before = set(os.listdir("/dev/shm"))
        slots = shared_slots(4)
        backend.run_phase([lambda k=k: slots.__setitem__(k, 1.0) for k in range(4)])
        backend.close()
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked

    def test_health_snapshot_shape(self, backend):
        snapshot = backend.health_snapshot()
        assert snapshot["backend"] == type(backend).__name__
        assert "phases_run" in snapshot
        assert "observed" in snapshot


@pytest.mark.parametrize("key", ["serial", "threads"])
def test_sdc_compute_emits_balanced_phases(key, potential, sdc_atoms, sdc_nlist):
    """Through a real strategy: every begun phase ends, after exactly the
    tasks it announced (density colors + embedding + force colors)."""
    from repro.core.strategies import SDCStrategy

    observer = RecordingObserver()
    with SDCStrategy(
        dims=2, n_threads=2, backend=BACKEND_FACTORIES[key]()
    ) as strategy:
        strategy.backend.attach_observer(observer)
        result = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
    assert np.all(np.isfinite(result.forces))
    sizes = {e[1]: e[2] for e in observer.events if e[0] == "phase_begin"}
    assert len(sizes) >= 3
    for phase, size in sizes.items():
        ended = sorted(
            e[2] for e in observer.events if e[:2] == ("task_end", phase)
        )
        assert ended == list(range(size))
        assert ("phase_end", phase) in observer.events


@pytest.mark.parametrize("key", [pytest.param(k, marks=needs_fork) for k in FORKED])
class TestForkedBackendDeath:
    """Worker death is a substrate failure: BackendError, not the task's
    exception — and a respawned group serves the next phase."""

    def test_worker_death_raises_backend_error(self, key):
        backend = BACKEND_FACTORIES[key]()
        try:
            with pytest.raises(BackendError):
                backend.run_phase([lambda: os._exit(7)])
            # the barrier held and the backend recovered
            slots = shared_slots(1)
            backend.run_phase([lambda: slots.__setitem__(0, 5.0)])
            assert slots[0] == 5.0
        finally:
            backend.close()


def _echo(command, payload):
    if command == "boom":
        raise ValueError("handler boom")
    return os.getpid(), payload


GROUP_FACTORIES = {
    "forked": pytest.param(
        lambda: WorkerGroup([_echo, _echo], timeout_s=60.0), marks=needs_fork
    ),
    "inline": lambda: InlineGroup([_echo, _echo]),
}


@pytest.fixture(params=list(GROUP_FACTORIES.values()), ids=list(GROUP_FACTORIES))
def group(request):
    instance = request.param()
    yield instance
    instance.stop()


class TestWorkerGroupLifecycle:
    def test_workers_persist_across_commands(self, group):
        first = group.run("echo", ["a", "b"])
        second = group.run("echo")
        assert [payload for _, payload in first] == ["a", "b"]
        assert [pid for pid, _ in first] == [pid for pid, _ in second]
        if group.pids:
            assert [pid for pid, _ in first] == list(group.pids)

    def test_fewer_payloads_address_fewer_workers(self, group):
        assert len(group.run("echo", ["only"])) == 1

    def test_handler_exception_keeps_the_group_usable(self, group):
        with pytest.raises(ValueError, match="handler boom"):
            group.run("boom")
        assert len(group.run("echo")) == 2

    def test_stop_is_idempotent_and_rejects_later_commands(self, group):
        group.stop()
        group.stop()
        assert list(group.pids) == []
        with pytest.raises(BackendError):
            group.run("echo")

    @needs_fork
    @pytest.mark.linux
    def test_hung_worker_is_a_backend_error_not_a_hang(self):
        """A SIGSTOPped worker never answers: the per-command timeout
        turns that into BackendError, and stop() still reaps it."""
        group = WorkerGroup([_echo, _echo], timeout_s=0.5)
        pids = list(group.pids)
        try:
            os.kill(pids[0], signal.SIGSTOP)
            started = time.monotonic()
            with pytest.raises(BackendError):
                group.run("echo")
            assert time.monotonic() - started < 10.0
            with pytest.raises(BackendError):
                group.run("echo")  # broken until respawned
        finally:
            group.stop()
        assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]


class TestArenaHandOver:
    """The region's pair-sized fields are the density → force hand-over:
    the density tasks publish ``(delta, r, phi', V')`` per pair, the force
    tasks of the same positions read them and nothing else."""

    @pytest.fixture()
    def worker(self, potential, sdc_atoms, sdc_nlist):
        from repro import kernels
        from repro.parallel.backends.workers import ChunkWorker, SharedArena

        i_idx, j_idx = sdc_nlist.pair_arrays()
        size = (sdc_atoms.n_atoms, len(i_idx))
        arena = SharedArena([size], n_workers=1)
        views = arena.region(0, size)
        views["positions"][:] = sdc_atoms.positions
        views["pair_i"][:], views["pair_j"][:] = i_idx, j_idx
        worker = ChunkWorker(arena, 0, potential, kernels.get("numpy"))
        # two tasks: the evaluation sweeps every range of the task list
        half = len(i_idx) // 2
        worker("epoch", {
            "sizes": [size], "box": sdc_atoms.box,
            "tasks": [(0, half), (half, len(i_idx))],
            "rows": (0, sdc_atoms.n_atoms), "copies": [], "owners": [],
        })
        return worker, views

    def test_region_carries_the_pair_sized_fields(self, worker, sdc_nlist):
        worker, views = worker
        assert len(views) == 14
        assert "pair_offsets" not in views  # tasks are ranges, not CSR rows
        assert worker.arena.barrier.shape == (2, 8)  # abort word + one worker
        n_pairs = sdc_nlist.n_pairs
        assert views["pair_delta"].shape == (n_pairs, 3)
        for field in ("pair_r", "pair_dphi", "pair_dv", "pair_phi"):
            assert views[field].shape == (n_pairs,)
            assert views[field].dtype == np.float64

    def test_force_reads_what_density_wrote(
        self, worker, potential, reference_result
    ):
        worker, views = worker
        worker("evaluate", 1)
        _, dphi, _, dv = potential.pair_terms(views["pair_r"])
        assert np.array_equal(views["pair_dphi"], dphi)
        assert np.array_equal(views["pair_dv"], dv)
        scale = np.max(np.abs(reference_result.forces))
        assert np.max(np.abs(views["forces"] - reference_result.forces)) < 1e-12 * scale
        # ... and only that: force tasks over doubled derivatives double
        # the forces, whatever the positions say
        views["pair_dphi"] *= 2.0
        views["pair_dv"] *= 2.0
        views["positions"][:] = 0.0
        once = views["forces"].copy()
        views["forces"][:] = 0.0
        for lo, hi in worker.tasks:
            worker._task("force", lo, hi)
        assert np.allclose(views["forces"], 2.0 * once, rtol=1e-12, atol=0.0)

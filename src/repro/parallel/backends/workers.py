"""The one forked-worker engine under both process calculators.

The paper's substrate is a single thing — persistent workers over shared
arrays, lock-free inside a color phase, a barrier between colors.  This
module holds the only copy of each of its parts:

* :class:`SharedArena` — one anonymous shared ``mmap``: the ``barrier``
  control block of every worker, then *regions* of ten named,
  64-byte-aligned fields (positions, the three reduction targets, the
  pair list in task order, and the per-pair geometry and potential
  derivatives the density pass publishes for the force pass).  Every
  field is allocated with :data:`ARENA_HEADROOM` spare capacity; only the
  first ``n`` rows are ever viewed, so the spare pages are never touched
  and never become resident.  The mapping is inherited through ``fork``
  — there is no named ``/dev/shm`` entry that could outlive a crashed run.
* :class:`ColorBarrier` — the paper's one synchronisation, between the
  workers themselves: arrival generations in the control block, and an
  abort word that releases the waiters of a failed or dead sibling.
* :class:`WorkerGroup` — persistent forked workers on duplex pipes: a
  ready rendezvous, a ``(command, payload)`` loop, one reply per
  addressed worker per command.  All replies are collected before
  anything is raised; a worker that died or missed the per-command
  deadline raises :class:`BackendError`, a handler that raised re-raises
  its own exception.  :class:`InlineGroup` is the same protocol in the
  calling process, one thread per handler (differential twin, no-fork
  fallback), so barriered commands run there unchanged.
* :class:`ChunkWorker` — the worker-side handler and the one evaluation
  body, ``evaluate``: the colour schedule over contiguous pair ranges
  (density publishes ``pair_delta``/``pair_r``/``pair_dphi``/``pair_dv``,
  force reuses them and calls no potential function), with the halo
  exchange between regions pulled by the workers at its barriers.
* :class:`WorkerEngine` — the calculator-side lifecycle under
  :class:`~repro.parallel.backends.sharded.ShardEngine`, the evaluation
  both calculators share: tracer attachment and the spawn state machine.

Spawn state machine (``WorkerEngine._evaluate``).  Workers and arena are
(re)created through exactly one path, taken when there is no live group
(first compute, after ``close()``), the group is broken (worker death or
timeout), the potential or the process's active kernel tier is not the
object the workers were forked with (both are fork-constant worker state), or the
epoch no longer fits the arena's capacity.  Otherwise workers survive:
a new decomposition epoch only rewrites the pair list in place and ships
a small *epoch payload* (sizes, box, the worker's pair ranges, atom rows
and ghost maps).  A :class:`BackendError` during an evaluation respawns the group
and retries once from the zero fill; a second failure propagates.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing as mp
import os
import pickle
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.obs.tracer import span_of
from repro.parallel.backends.base import BackendError
from repro.potentials.base import EAMPotential

#: generous per-command barrier timeout; a phase exceeding it is treated
#: as a lost worker group (BackendError), not silently waited on forever
DEFAULT_PHASE_TIMEOUT_S = 120.0

#: capacity allocated per arena field, as a multiple of the rows first
#: requested.  Pair counts and per-shard atom counts drift by about a
#: percent between Verlet rebuilds, so a quarter of spare capacity lets
#: workers survive every epoch of a run; the spare pages stay untouched
ARENA_HEADROOM = 1.25

_ALIGN = 64

#: ``(n_atoms, n_pairs)`` of one arena region: rows of its atom fields and
#: rows of its pair fields
RegionSize = Tuple[int, int]

#: handler of one worker: ``handler(command, payload) -> reply value``
Handler = Callable[[str, object], object]

#: barrier iterations a waiter spins before it yields its CPU at every
#: further one; both halves are measured necessities (DESIGN §7.1)
BARRIER_SPINS = 64


def record_health(
    category: str, event: str, severity: str = "info", **fields: object
) -> None:
    """Flight-recorder event (imported lazily: ``repro.obs`` sits above
    this package in the import order)."""
    from repro.obs.recorder import record

    record(category, event, severity=severity, **fields)


def count_health(name: str) -> None:
    """Bump a named health counter."""
    from repro.obs.recorder import count

    count(name)


def portable_exception(exc: BaseException) -> BaseException:
    """An exception object that survives a pickle round-trip.

    Returns ``exc`` itself when it pickles cleanly; otherwise a
    ``RuntimeError`` carrying the original type name and message, so the
    parent still gets *an* exception describing the failure.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# shared arena
# ---------------------------------------------------------------------------


def _region_fields(
    size: RegionSize,
) -> Dict[str, Tuple[Tuple[int, ...], np.dtype]]:
    """Shape and dtype of every field of one region.

    ``pair_delta``/``pair_r`` cache the minimum-image geometry and
    ``pair_dphi``/``pair_dv`` the potential derivatives ``phi'``/``V'``
    computed by the density pass, so the force pass reuses them instead of
    recomputing — each pair slot belongs to exactly one task, so the
    writes are disjoint by construction.
    """
    n_atoms, n_pairs = size
    f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
    return {
        "positions": ((n_atoms, 3), f8),
        "rho": ((n_atoms,), f8),
        "fp": ((n_atoms,), f8),
        "forces": ((n_atoms, 3), f8),
        "pair_i": ((n_pairs,), i8),
        "pair_j": ((n_pairs,), i8),
        "pair_delta": ((n_pairs, 3), f8),
        "pair_r": ((n_pairs,), f8),
        "pair_dphi": ((n_pairs,), f8),
        "pair_dv": ((n_pairs,), f8),
    }


class SharedArena:
    """One anonymous shared mapping: the barrier block of ``n_workers``
    workers, then a region per entry of ``sizes``.

    Created before the fork and inherited by every worker, so parent-side
    sync and worker-side scatters address the same pages.  The mapping is
    released when its last view is dropped; it cannot outlive its
    processes.
    """

    def __init__(self, sizes: Sequence[RegionSize], n_workers: int) -> None:
        #: per region: field -> (byte offset, capacity in items)
        self._slots: List[Dict[str, Tuple[int, int]]] = []
        lines = n_workers + 1
        total = lines * _ALIGN
        for size in sizes:
            slots: Dict[str, Tuple[int, int]] = {}
            for field, (shape, dtype) in _region_fields(size).items():
                capacity = math.ceil(math.prod(shape) * ARENA_HEADROOM)
                slots[field] = (total, capacity)
                total += -(-capacity * dtype.itemsize // _ALIGN) * _ALIGN
            self._slots.append(slots)
        self.nbytes = max(total, mmap.PAGESIZE)
        self._mm = mmap.mmap(-1, self.nbytes)
        #: the control block of :class:`ColorBarrier`, one cache line per word
        self.barrier = np.frombuffer(
            self._mm, np.int64, lines * _ALIGN // 8
        ).reshape(lines, _ALIGN // 8)

    def fits(self, sizes: Sequence[RegionSize]) -> bool:
        """Whether every region of ``sizes`` is within allocated capacity."""
        return len(sizes) == len(self._slots) and all(
            math.prod(shape) <= slots[field][1]
            for size, slots in zip(sizes, self._slots)
            for field, (shape, _) in _region_fields(size).items()
        )

    def region(self, index: int, size: RegionSize) -> Dict[str, np.ndarray]:
        """Views of region ``index`` sliced to ``size`` (re-slice per epoch)."""
        views: Dict[str, np.ndarray] = {}
        for field, (shape, dtype) in _region_fields(size).items():
            offset, capacity = self._slots[index][field]
            count = math.prod(shape)
            if count > capacity:
                raise ValueError(
                    f"region {index} field {field!r} needs {count} items, "
                    f"capacity is {capacity}"
                )
            views[field] = np.frombuffer(
                self._mm, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
        return views

    def abort(self) -> None:
        """Release every barrier waiter (a worker died): an abort word no
        generation reaches."""
        self.barrier[0, 0] = np.iinfo(np.int64).max


class PhaseAborted(RuntimeError):
    """Raised in a barrier waiter whose sibling failed or died; the parent
    re-raises the sibling's own error (or :class:`BackendError`) instead."""


class ColorBarrier:
    """Worker ``index``'s handle on the arena's ``barrier`` block.

    Word 0 is the *abort word*; word ``1 + k`` is worker ``k``'s arrival
    *generation* — each in its own cache line and written by that worker
    alone, so no atomic is needed.  Generations are issued by the parent
    with every command and only ever grow, so whatever a failed
    evaluation left behind is below the next command's base.  A forked
    waiter watches its driver: a SIGKILLed one leaves no spinning orphan.
    """

    def __init__(self, lines: np.ndarray, index: int, forked: bool) -> None:
        self._words = lines[:, 0]
        self._arrived = self._words[1:]
        self._slot = 1 + index
        self._fence = threading.Lock()
        self._parent = os.getppid() if forked else None

    def abort(self, generation: int) -> None:
        """This worker will not arrive: release its waiting siblings."""
        self._words[0] = generation

    def wait(self, generation: int, base: int) -> None:
        """Arrive at barrier ``generation`` of the command whose first
        generation is ``base``; return once every sibling arrived."""
        with self._fence:  # a full fence, whatever the CPU's store order:
            pass  # this worker's scatters land before its arrival
        self._words[self._slot] = generation
        spins = 0
        while self._arrived.min() < generation:
            if self._words[0] >= base:
                raise PhaseAborted(f"a sibling left barrier {generation}")
            spins += 1
            if spins > BARRIER_SPINS:
                os.sched_yield()
                if not spins % 1024 and self._parent not in (None, os.getppid()):
                    os._exit(1)
        with self._fence:
            pass


# ---------------------------------------------------------------------------
# worker groups
# ---------------------------------------------------------------------------


def _call(handler: Handler, command: str, payload: object) -> Tuple[str, object]:
    """Run one command; the reply is ``("ok", value)`` or ``("err", exc)``."""
    try:
        return "ok", handler(command, payload)
    except Exception as exc:  # status channel: re-raised by the caller
        return "err", exc


def _settle(replies: Sequence[Tuple[str, object]]) -> List[object]:
    """Values of a fully collected phase; re-raise its first task error
    (a :class:`PhaseAborted` only echoes a sibling's, so it comes last)."""
    errors = [value for status, value in replies if status != "ok"]
    if errors:
        raise min(errors, key=lambda exc: isinstance(exc, PhaseAborted))
    return [value for _, value in replies]


def _addressed(
    payloads: Optional[Sequence[object]], n_workers: int
) -> Sequence[object]:
    """One payload per addressed worker: worker ``k`` gets ``payloads[k]``.

    ``payloads`` may be shorter than the group (only the first
    ``len(payloads)`` workers are addressed); None addresses every worker
    with a None payload.
    """
    if payloads is None:
        return [None] * n_workers
    if len(payloads) > n_workers:
        raise ValueError(f"{len(payloads)} payloads for {n_workers} workers")
    return payloads


def _worker_main(conn, handler: Handler, index, n_workers, parent_ends) -> None:
    """Persistent worker: answer ``(command, payload)`` until told to exit.

    The handler was captured before the fork, so it addresses the arena
    pages directly; only the command, its small payload and the reply
    cross the pipe.  Worker ``index`` takes the ``index``-th CPU of the
    inherited affinity mask when the mask has one per worker: siblings
    stacked on one CPU trade whole timeslices at every barrier.
    """
    for inherited in parent_ends:  # or a killed driver's pipes never read EOF
        inherited.close()
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= n_workers:
            os.sched_setaffinity(0, {cpus[index]})
    try:
        conn.send(("ok", os.getpid()))
        while True:
            try:
                command, payload = conn.recv()
            except (EOFError, OSError):
                break
            if command is None:
                break
            status, value = _call(handler, command, payload)
            if status == "err":
                value = portable_exception(value)
            conn.send((status, value))
    finally:
        conn.close()


class WorkerGroup:
    """One persistent forked worker per handler, driven over duplex pipes.

    The ready rendezvous (every worker answers before the group counts as
    live) means the first command never races worker startup.  Requires
    the ``fork`` start method.  ``on_death`` (:meth:`SharedArena.abort`)
    runs the moment a worker is seen dead, while replies are still being
    collected, so no sibling waits for it at a barrier.
    """

    def __init__(
        self,
        handlers: Sequence[Handler],
        timeout_s: float,
        on_death: Callable[[], None] = lambda: None,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError("WorkerGroup requires fork support")
        self.timeout_s = timeout_s
        self.broken = False
        self._on_death = on_death
        self._workers = []
        ctx = mp.get_context("fork")
        for index, handler in enumerate(handlers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            parent_ends = [conn for _, conn in self._workers] + [parent_conn]
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, handler, index, len(handlers), parent_ends),
                daemon=True,
            )
            process.start()
            # closed before the next fork, so no sibling inherits it and
            # a dead worker's pipe reads EOF immediately
            child_conn.close()
            self._workers.append((process, parent_conn))
        try:
            self._collect("startup", self._workers)
        except BackendError:
            self.stop()
            raise

    @property
    def pids(self) -> List[int]:
        return [process.pid for process, _ in self._workers]

    def run(
        self, command: str, payloads: Optional[Sequence[object]] = None
    ) -> List[object]:
        """Send ``(command, payloads[k])`` to worker ``k``; barrier on all
        addressed workers (see :func:`_addressed`)."""
        if self.broken:
            raise BackendError("worker group is stopped or broken")
        payloads = _addressed(payloads, len(self._workers))
        targets = self._workers[: len(payloads)]
        for (_, conn), payload in zip(targets, payloads):
            try:
                conn.send((command, payload))
            except OSError:
                pass  # a dead worker is reported by the collection below
        return self._collect(command, targets)

    def _collect(self, command: str, targets) -> List[object]:
        """One reply per target, all collected before anything is raised.

        Waits on every pending pipe *and* process sentinel at once: the
        workers polled before a dead one may be waiting for it at a
        barrier, and only ``on_death`` releases them.
        """
        # not at module level: the serial path imports this module too
        from multiprocessing.connection import wait

        deadline = time.monotonic() + self.timeout_s
        pending = {conn: index for index, (_, conn) in enumerate(targets)}
        conn_of = {process.sentinel: conn for process, conn in targets}
        replies: Dict[int, object] = {}
        lost: List[int] = []
        while pending:
            ready = wait(
                [*pending, *(s for s, c in conn_of.items() if c in pending)],
                max(0.0, deadline - time.monotonic()),
            )
            if not ready:  # the deadline passed: a hung worker
                lost.extend(pending.values())
                break
            # a worker's pipe and sentinel may fire together: one entry
            for conn in {conn_of.get(item, item) for item in ready}:
                index = pending.pop(conn)
                try:
                    if conn.poll():  # EOF raises, a bare sentinel has nothing
                        replies[index] = conn.recv()
                        continue
                except (EOFError, OSError):
                    pass
                lost.append(index)
                self._on_death()
        if lost:
            self.broken = True
            raise BackendError(
                f"worker(s) {sorted(lost)} died or timed out during {command!r}"
            )
        return _settle([replies[index] for index in range(len(targets))])

    def stop(self) -> None:
        """Tear the group down (idempotent); later commands are rejected.

        A healthy group is asked to exit; a broken one (a worker may be
        hung mid-scatter) is killed outright, so no straggler can write
        into the arena after this returns.
        """
        workers, self._workers = self._workers, []
        polite, self.broken = not self.broken, True
        if polite:
            for _, conn in workers:
                try:
                    conn.send((None, None))
                except OSError:
                    pass
        for process, conn in workers:
            if polite:
                process.join(5.0)
            if process.is_alive():
                process.kill()
            process.join()
            conn.close()


class InlineGroup:
    """The same command protocol executed in the calling process, each
    addressed handler on its own thread, so siblings can meet at a
    :class:`ColorBarrier` exactly as forked workers do."""

    pids: Sequence[int] = ()

    def __init__(self, handlers: Sequence[Handler]) -> None:
        self._handlers = list(handlers)
        self.broken = False

    def run(
        self, command: str, payloads: Optional[Sequence[object]] = None
    ) -> List[object]:
        if self.broken:
            raise BackendError("worker group is stopped or broken")
        payloads = _addressed(payloads, len(self._handlers))
        replies: List[Tuple[str, object]] = [("ok", None)] * len(payloads)

        def serve(k: int) -> None:
            replies[k] = _call(self._handlers[k], command, payloads[k])

        threads = [
            threading.Thread(target=serve, args=(k,)) for k in range(len(payloads))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return _settle(replies)

    def stop(self) -> None:
        self._handlers = []
        self.broken = True


# ---------------------------------------------------------------------------
# the worker-side task body
# ---------------------------------------------------------------------------


class ChunkWorker:
    """Command handler of one worker, bound to one arena region.

    Potential, kernel tier, the write-recording flag and the worker's
    ``index`` among all the arena's barrier participants are
    fork-constant; everything that changes with a decomposition epoch
    arrives in the ``epoch`` payload and the views are re-sliced from it.
    """

    def __init__(
        self,
        arena: SharedArena,
        region: int,
        potential: EAMPotential,
        tier: "kernels.NumpyKernelTier",
        record_writes: bool = False,
        index: int = 0,
    ) -> None:
        self.arena = arena
        self.region = region
        self.potential = potential
        self.tier = tier
        self.record_writes = record_writes
        self.index = index
        self._driver = os.getpid()
        #: views of every region, and of this worker's own
        self.regions: List[Dict[str, np.ndarray]] = []
        self.views: Dict[str, np.ndarray] = {}
        self.box = None
        self.tasks: Sequence[Tuple[int, int]] = ()
        self.rows = (0, 0)
        #: ghost maps, entries ``(other region, rows there, rows here)``:
        #: ghost copies of my owned rows, and owners of my ghost rows
        self.copies: Sequence[Tuple[int, np.ndarray, np.ndarray]] = ()
        self.owners: Sequence[Tuple[int, np.ndarray, np.ndarray]] = ()
        self.barrier: Optional[ColorBarrier] = None
        #: flat write set per task of the current command (``record_writes``)
        self.writes: List[List[int]] = []

    def __call__(self, command: str, payload: object) -> object:
        return getattr(self, "do_" + command)(payload)

    def do_epoch(self, payload: dict) -> None:
        """Adopt a new decomposition epoch (the pair lists are already in
        place): ``tasks`` are this worker's ``[lo, hi)`` pair ranges, one
        per color in schedule order, ``rows`` the atom rows it embeds,
        ``copies``/``owners`` its ghost maps."""
        self.regions = [
            self.arena.region(r, size) for r, size in enumerate(payload["sizes"])
        ]
        self.views = self.regions[self.region]
        self.box, self.tasks = payload["box"], payload["tasks"]
        self.rows, self.copies, self.owners = (
            payload["rows"], payload["copies"], payload["owners"]
        )
        self.barrier = ColorBarrier(
            self.arena.barrier, self.index, forked=os.getpid() != self._driver
        )

    def do_evaluate(self, base: int):
        """One whole force evaluation, in step with every sibling.

        Density color by color with a barrier after each; *pull rho* (add
        each ghost copy's density into my owned rows), embed my rows,
        barrier; *pull fp* (my ghost rows from their owners), then each
        force color followed by a barrier; *pull forces* through the
        owned-copy map.  Each pull reads only what the barrier before it
        completed, and writes rows no sibling touches until the next one.
        ``2 * n_colors + 1`` barriers, generations ``base, base + 1, ...``.
        Returns ``(pair-energy partial, embedding-energy partial, marks,
        per-task write sets, tid)``; ``marks`` are ``perf_counter`` at the
        start, at every barrier's entry and exit, and at the end; the tid
        of a forked worker is its pid.
        """
        barrier, generation = self.barrier, base
        marks, self.writes = [time.perf_counter()], []
        views, regions = self.views, self.regions

        def meet() -> None:
            nonlocal generation
            marks.append(time.perf_counter())
            barrier.wait(generation, base)
            generation += 1
            marks.append(time.perf_counter())

        try:
            pair_energy = embedding_energy = 0.0
            for lo, hi in self.tasks:
                pair_energy += self._task("density", lo, hi)
                meet()
            for other, there, here in self.copies:
                views["rho"][here] += regions[other]["rho"][there]
            lo, hi = self.rows
            if hi > lo:  # every energy counted once, by the row's owner
                rho = views["rho"][lo:hi]
                views["fp"][lo:hi] = self.potential.embed_deriv(rho)
                embedding_energy = float(np.sum(self.potential.embed(rho)))
            meet()
            for other, there, here in self.owners:
                views["fp"][here] = regions[other]["fp"][there]
            for lo, hi in self.tasks:
                self._task("force", lo, hi)
                meet()
            for other, there, here in self.copies:
                views["forces"][here] += regions[other]["forces"][there]
        except Exception:
            barrier.abort(generation)
            raise
        marks.append(time.perf_counter())
        return (
            pair_energy, embedding_energy, marks, self.writes,
            threading.get_native_id(),
        )

    def _task(self, kind: str, lo: int, hi: int) -> float:
        """One task: the pair range ``[lo, hi)`` through one pass.

        The density pass makes the range's one potential call, publishes
        each pair's minimum-image geometry and ``phi'``/``V'`` into the
        region and returns the range's pair-energy partial sum — the
        force pass reads them back instead of recomputing.
        """
        views, tier = self.views, self.tier
        name = "rho" if kind == "density" else "forces"
        target, log = views[name], None
        if self.record_writes:
            # the shadow writes through to the same shared memory — only
            # the index bookkeeping is worker-local
            from repro.analysis.shadow import TaskWriteLog, wrap_array

            log = TaskWriteLog()
            target = wrap_array(target, name, log)
        i_idx, j_idx = views["pair_i"][lo:hi], views["pair_j"][lo:hi]
        handover = [
            views[key][lo:hi]
            for key in ("pair_delta", "pair_r", "pair_dphi", "pair_dv")
        ]
        pair_energy = 0.0
        if kind == "density":
            pair_energy = tier.density_slice(
                self.potential, views["positions"], self.box, i_idx, j_idx,
                target, handover,
            )
        else:
            tier.force_slice(i_idx, j_idx, views["fp"], handover, target)
        if log is not None:
            self.writes.append(log.flat(name).tolist())
        return pair_energy


# ---------------------------------------------------------------------------
# calculator-side lifecycle
# ---------------------------------------------------------------------------


class _Live:
    """Holder of the fork-side state, so ``weakref.finalize`` can release
    it without resurrecting the calculator."""

    def __init__(self) -> None:
        self.group = None
        self.arena: Optional[SharedArena] = None
        #: the parent's views of each arena region, sliced to the epoch
        self.views: List[Dict[str, np.ndarray]] = []

    def release(self) -> None:
        """Stop the workers first, then drop the mapping (idempotent)."""
        group, self.group, self.arena, self.views = self.group, None, None, []
        if group is not None:
            group.stop()


class WorkerEngine:
    """Lifecycle shared by the process calculators (see module docstring).

    The subclass supplies ``_region_sizes()`` (the arena regions the
    current epoch needs), ``_worker_regions()`` (the region of each
    worker) and ``_publish_epoch()`` (write the epoch's static state into
    the arena and send the ``epoch`` command); it calls
    :meth:`_new_epoch` when its decomposition changed and runs every
    evaluation through :meth:`_evaluate`.
    """

    name = "engine"
    #: workers ship per-task write sets back (the race detector's input)
    record_writes = False

    def __init__(
        self, timeout_s: float, restart_on_failure: bool, inline: bool
    ) -> None:
        self.timeout_s = timeout_s
        self.restart_on_failure = restart_on_failure
        self._inline = inline
        self._tracer = None
        self._live = _Live()
        self._finalizer = weakref.finalize(self, self._live.release)
        # fork-constant worker state of the live group
        self._potential: Optional[EAMPotential] = None
        self._spawned_tier: Optional[kernels.NumpyKernelTier] = None
        self._epoch = 0
        self._epoch_published = False
        # lifecycle counters surfaced by health_snapshot()
        self._n_pool_spawns = 0
        self._n_restarts = 0
        self._n_worker_deaths = 0

    # --- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and drop the arena (idempotent).

        The calculator stays usable: the next ``compute`` re-creates both
        and republishes the cached decomposition.
        """
        if self._live.group is not None:
            record_health(
                "engine",
                "engine-close",
                engine=self.name,
                epoch=self._epoch,
                arena_bytes_released=self.arena_bytes(),
            )
        self._live.release()
        self._potential = None
        self._epoch_published = False

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty before the first compute, after
        ``close()``, and for an in-process group)."""
        group = self._live.group
        return list(group.pids) if group is not None else []

    def arena_bytes(self) -> int:
        """Mapped bytes of the live arena, headroom included (0 without one)."""
        arena = self._live.arena
        return arena.nbytes if arena is not None else 0

    def _lifecycle_snapshot(self) -> Dict[str, object]:
        """The engine-level part of ``health_snapshot()``."""
        return {
            "engine": self.name,
            "worker_pids": self.worker_pids(),
            "epoch": self._epoch,
            "arena_bytes": self.arena_bytes(),
            "n_pool_spawns": self._n_pool_spawns,
            "n_restarts": self._n_restarts,
            "n_worker_deaths": self._n_worker_deaths,
            "kernel_tier": kernels.active_tier().name,
        }

    # --- observability ---------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Record timeline spans into *tracer*."""
        self._tracer = tracer

    def detach_tracer(self) -> None:
        self._tracer = None

    def _span(self, name: str, **args):
        return span_of(self._tracer, name, **args)

    # --- spawn state machine ---------------------------------------------------

    def _new_epoch(self) -> None:
        """The subclass rebuilt its decomposition: republish before use."""
        self._epoch += 1
        self._epoch_published = False

    def _ensure_workers(self, potential: EAMPotential) -> None:
        """The one spawn path: fork workers over a fresh arena when the
        live ones cannot serve this evaluation, else keep them.  The
        kernel tier is fork-constant worker state: any other tier object
        than the one the workers run, same-named or not, re-forks them
        with exactly the active one."""
        live, tier = self._live, kernels.active_tier()
        if (
            live.group is not None
            and not live.group.broken
            and potential is self._potential
            and tier is self._spawned_tier
            # region sizes only change with the epoch
            and (
                self._epoch_published
                or live.arena.fits(self._region_sizes())
            )
        ):
            return
        sizes = self._region_sizes()
        live.release()
        self._epoch_published = False
        started = time.perf_counter()
        regions = self._worker_regions()
        arena = SharedArena(sizes, len(regions))
        handlers = [
            ChunkWorker(arena, region, potential, tier, self.record_writes, index)
            for index, region in enumerate(regions)
        ]
        try:
            live.group = (
                InlineGroup(handlers)
                if self._inline
                else WorkerGroup(handlers, self.timeout_s, arena.abort)
            )
        except BackendError as exc:
            record_health(
                "engine",
                "pool-spawn-failed",
                severity="critical",
                engine=self.name,
                error=str(exc),
            )
            raise
        live.arena = arena
        self._potential = potential
        self._spawned_tier = tier
        self._n_pool_spawns += 1
        record_health(
            "engine",
            "pool-spawn",
            engine=self.name,
            n_workers=len(handlers),
            spawn_seconds=time.perf_counter() - started,
            spawn_count=self._n_pool_spawns,
            pids=self.worker_pids(),
            arena_bytes=arena.nbytes,
            kernel_tier=tier.name,
        )

    def _evaluate(self, potential: EAMPotential, once: Callable[[], object]):
        """Run ``once()`` on live, epoch-current workers.

        A :class:`BackendError` (worker death or timeout — never partial
        results: ``once`` restarts from its zero fill) respawns the group
        and retries once; a second one, or any with
        ``restart_on_failure=False``, propagates and leaves the broken
        group to be replaced by the next compute.
        """
        attempts = 2 if self.restart_on_failure else 1
        for attempt in range(attempts):
            try:
                with self._span("setup", phase="setup", epoch=self._epoch):
                    self._ensure_workers(potential)
                    if not self._epoch_published:
                        self._publish_epoch()
                        self._epoch_published = True
                return once()
            except BackendError as exc:
                self._n_worker_deaths += 1
                record_health(
                    "engine",
                    "worker-death",
                    severity="warning",
                    engine=self.name,
                    error=str(exc),
                )
                if attempt + 1 == attempts:
                    record_health(
                        "engine",
                        "engine-failed",
                        severity="critical",
                        engine=self.name,
                        error=str(exc),
                        attempt=attempt,
                    )
                    raise
                self._n_restarts += 1
                record_health(
                    "engine",
                    "pool-restart",
                    severity="warning",
                    engine=self.name,
                    restart_count=self._n_restarts,
                    error=str(exc),
                )
        raise AssertionError("unreachable")  # pragma: no cover

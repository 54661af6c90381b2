"""The SDC walker: one ``sdc_walk`` call per worker per evaluation.

* against the per-colour path (the thread pool with an observer attached,
  today's thread SDC): ``rho`` and forces bit-identical, energies to
  1e-12, for dims 1/2/3 x workers 1/2/3, on threads and on forked
  processes, over a bcc crystal, a crystal with a void and a slab;
* routing: the walker runs only where no instrument or observer watches
  the tasks, the backend has a team as wide as the schedule and the
  potential lowers; a tracer watches the walk from its clock marks;
* failures surface and never hang: an overlap in worker 1's range raises
  the tier's error naming the pair and releases the sibling, and so does
  a raise in worker 0 (the calling thread) before its walk; a forked
  helper SIGKILLed while worker 0 waits for it inside the walk is a
  ``BackendError``, after one transparent respawn;
* fewer CPUs than workers: pinned to one CPU, only the barrier's
  ``sched_yield`` branch lets the sibling run;
* the team: its helpers — threads, or the process engine's forked
  helper — use no CPU between walks, ``close`` joins them, and a forked
  child starts a team of its own.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import kernels
from repro.analysis.racecheck import WriteRecorder
from repro.core.sdc_plan import build_sdc_plan
from repro.core.strategies.sdc import SDCStrategy
from repro.harness.workloads import crystal_slab, crystal_with_void, uniform_crystal
from repro.kernels.c_tier import SDCTeam, SDCWalk
from repro.md import build_neighbor_list
from repro.parallel.backends import BackendError, SerialBackend, ThreadBackend
from repro.parallel.backends.base import PhaseObserver
from repro.potentials import compute_eam_forces_serial
from repro.potentials.johnson_fe import JohnsonFePotential

fork_available = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not fork_available, reason="requires fork")

#: a hung barrier fails the test instead of the run
DEADLINE_S = 60.0


@pytest.fixture(autouse=True)
def c_tier():
    """Every test here runs on the C tier, the one with a walker."""
    if "c" not in kernels.available_tiers():
        pytest.skip(f"C tier unavailable: {kernels.tier_status()['c']['reason']}")
    with kernels.use_tier("c") as tier:
        yield tier


@pytest.fixture()
def walks(monkeypatch):
    """``walks[w]``: how many walks barrier waiter ``w`` started: worker 0
    through ``SDCWalk.run`` (the calling thread of a team, on threads or
    processes), and a team's helpers ``1 .. p - 1``, which walk once for
    every ring they answer (an anonymous shared page, so a forked child's
    walks count too)."""
    page = mmap.mmap(-1, mmap.PAGESIZE)
    hits = np.frombuffer(page, dtype=np.int64, count=8)
    real_run, real_walk = SDCWalk.run, SDCTeam.walk

    def run(self, base, marks=None):
        hits[0] += 1
        return real_run(self, base, marks)

    def walk(self, sdc_walk, base):
        try:
            return real_walk(self, sdc_walk, base)
        finally:  # the team settled: every helper answered the ring
            hits[1 : len(sdc_walk.jobs)] += 1

    monkeypatch.setattr(SDCWalk, "run", run)
    monkeypatch.setattr(SDCTeam, "walk", walk)
    return hits


def within_deadline(call):
    """``call()`` on a helper thread; its value, or a failure naming the
    hang.  The walker holds no GIL, so a spinning barrier cannot stall
    this thread's join."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(DEADLINE_S)
    assert not helper.is_alive(), f"no return within {DEADLINE_S} s: a hang"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


#: 12 cells: 4 subdomains per decomposed axis, so every worker of up to
#: three has pairs in most colours
GEOMETRIES = {
    "bcc": lambda: uniform_crystal(12, perturbation=0.08, seed=3),
    "void": lambda: crystal_with_void(12, 0.15, perturbation=0.08, seed=3),
    "slab": lambda: crystal_slab(12, 6, vacuum_factor=2.0, seed=3),
}


def with_list(atoms):
    potential = JohnsonFePotential()
    nlist = build_neighbor_list(
        atoms.positions, atoms.box, cutoff=potential.cutoff, skin=0.3, half=True
    )
    return potential, atoms, nlist


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def system(request):
    return with_list(GEOMETRIES[request.param]())


@pytest.fixture(scope="module")
def wide():
    """The bcc system and its serial forces."""
    potential, atoms, nlist = with_list(GEOMETRIES["bcc"]())
    reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)
    return potential, atoms, nlist, reference.forces


def per_colour(potential, atoms, nlist, dims, workers):
    """Today's thread SDC: the per-colour body on the pool, which an
    attached observer keeps off the walker."""
    with ThreadBackend(workers) as backend:
        backend.attach_observer(PhaseObserver())
        strategy = SDCStrategy(dims=dims, n_threads=workers, backend=backend)
        return strategy.compute(potential, atoms.copy(), nlist)


def assert_identical(got, want):
    np.testing.assert_array_equal(got.rho, want.rho)
    np.testing.assert_array_equal(got.forces, want.forces)
    for name in ("pair_energy", "embedding_energy"):
        assert getattr(got, name) == pytest.approx(
            getattr(want, name), rel=1e-12, abs=0.0
        )


class TestWalkerMatchesPerColourPath:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_threads(self, system, dims, workers, walks):
        potential, atoms, nlist = system
        want = per_colour(potential, atoms, nlist, dims, workers)
        assert not walks.any()
        with ThreadBackend(workers) as backend:
            strategy = SDCStrategy(dims=dims, n_threads=workers, backend=backend)
            for _ in range(2):  # a second evaluation reuses the epoch's walk
                got = within_deadline(
                    lambda: strategy.compute(potential, atoms.copy(), nlist)
                )
                assert_identical(got, want)
        assert walks[:workers].tolist() == [2] * workers

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_processes(self, system, dims, workers, walks):
        from repro.parallel.backends.processes import ProcessSDCCalculator

        potential, atoms, nlist = system
        want = per_colour(potential, atoms, nlist, dims, workers)
        with ProcessSDCCalculator(dims=dims, n_workers=workers) as calc:
            for _ in range(2):
                assert_identical(calc.compute(potential, atoms.copy(), nlist), want)
        assert walks[:workers].tolist() == [2] * workers


class TestRouting:
    """Where the per-colour path still runs."""

    def test_threads_walk_by_default(self, potential, sdc_atoms, sdc_nlist, walks):
        with ThreadBackend(2) as backend:
            SDCStrategy(2, 2, backend).compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert walks[:2].tolist() == [1, 1]

    def test_a_traced_evaluation_walks(self, potential, sdc_atoms, sdc_nlist, walks):
        """Bit-identical to the untraced walk, and its spans give the
        kernel phases and the barrier rows."""
        from repro.obs.tracer import CAT_BARRIER, CAT_TASK, Tracer
        from repro.utils.profiler import phase_stats

        tracer = Tracer()
        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(2, 2, backend)
            want = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
            strategy.attach_tracer(tracer)
            got = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert walks[:2].tolist() == [2, 2]
        np.testing.assert_array_equal(got.rho, want.rho)
        np.testing.assert_array_equal(got.forces, want.forces)
        assert (got.pair_energy, got.embedding_energy) == (
            want.pair_energy, want.embedding_energy
        )
        n_steps = 2 * strategy.schedule.n_colors + 1
        tasks = tracer.by_category(CAT_TASK)
        assert len(tasks) == 2 * n_steps
        assert len({s.track for s in tasks}) == 2
        assert {s.track for s in tracer.by_category(CAT_BARRIER)} <= {
            s.track for s in tasks
        }
        stats = phase_stats(tracer.spans)
        assert {"density", "embedding", "force", "color-barrier"} <= set(stats)

    @pytest.mark.parametrize(
        "setup",
        ["serial-backend", "narrow-pool", "observer", "instrument", "numpy-tier",
         "unlowered-potential"],
    )
    def test_per_colour_path(self, setup, potential, sdc_atoms, sdc_nlist, walks):
        backend = SerialBackend() if setup == "serial-backend" else ThreadBackend(
            1 if setup == "narrow-pool" else 2
        )
        strategy = SDCStrategy(2, 2, backend)
        if setup == "observer":
            backend.attach_observer(PhaseObserver())
        if setup == "instrument":
            strategy.attach_instrument(WriteRecorder())
        if setup == "unlowered-potential":
            potential = type("Fe", (JohnsonFePotential,), {})()
        tier = "numpy" if setup == "numpy-tier" else "c"
        with kernels.use_tier(tier), backend:
            result = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert not walks.any()
        want = compute_eam_forces_serial(potential, sdc_atoms.copy(), sdc_nlist)
        np.testing.assert_allclose(result.forces, want.forces, atol=1e-10)

    @needs_fork
    def test_recording_workers_run_the_per_colour_body(
        self, potential, sdc_atoms, sdc_nlist, walks
    ):
        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(2, 2, record_writes=True) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert calc.last_write_record
        assert not walks.any()


def overlapping_pair(atoms, nlist, worker):
    """``(atoms, i, j)``: a copy of ``atoms`` with ``j`` moved 1e-9 Å from
    ``i``, the first pair of ``worker``'s first non-empty range of the
    2-D, 2-worker plan."""
    plan = build_sdc_plan(atoms.box, nlist, 2, 2)
    lo = next(lo for lo, hi in plan.tasks[worker] if hi > lo)
    i, j = int(plan.pair_i[lo]), int(plan.pair_j[lo])
    moved = atoms.copy()
    moved.positions[j] = moved.positions[i] + (0.0, 0.0, 1e-9)
    return moved, i, j


class TestFailuresSurface:
    def test_overlap_in_worker_1_on_threads(self, wide, walks):
        potential, atoms, nlist, forces = wide
        moved, i, j = overlapping_pair(atoms, nlist, worker=1)
        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(2, 2, backend)
            with pytest.raises(ValueError, match=f"atoms {i} and {j} are sep"):
                within_deadline(lambda: strategy.compute(potential, moved, nlist))
            assert walks[:2].tolist() == [1, 1]
            # the barrier block is ready for the next evaluation
            result = within_deadline(
                lambda: strategy.compute(potential, atoms.copy(), nlist)
            )
        np.testing.assert_allclose(result.forces, forces, atol=1e-10)

    def test_raise_before_the_call_releases_the_sibling(
        self, wide, c_tier, monkeypatch
    ):
        """Worker 0 — the calling thread, the one team worker that runs
        Python — raises instead of entering ``sdc_walk``; helper 1 is
        already waiting at barrier 0 and must be let go, and the team
        walks the next evaluation."""
        potential, atoms, nlist, forces = wide
        real, raised = c_tier._c_walk, []

        def walk(shared, ranges, lo, hi, waiter, *rest):
            if not raised:
                raised.append(waiter)
                time.sleep(0.2)  # helper 1 reaches the barrier first
                raise RuntimeError("worker 0 failed")
            return real(shared, ranges, lo, hi, waiter, *rest)

        monkeypatch.setattr(c_tier, "_c_walk", walk)
        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(2, 2, backend)
            with pytest.raises(RuntimeError, match="worker 0 failed"):
                within_deadline(
                    lambda: strategy.compute(potential, atoms.copy(), nlist)
                )
            assert raised == [0]
            start, arrived, left = strategy._walk.marks[1, :3]
            assert 0 < start < arrived and left == 0  # aborted at barrier 0
            result = within_deadline(
                lambda: strategy.compute(potential, atoms.copy(), nlist)
            )
        np.testing.assert_allclose(result.forces, forces, atol=1e-10)

    @needs_fork
    def test_overlap_in_worker_1_on_processes(self, wide, walks):
        from repro.parallel.backends.processes import ProcessSDCCalculator

        potential, atoms, nlist, forces = wide
        moved, i, j = overlapping_pair(atoms, nlist, worker=1)
        with ProcessSDCCalculator(2, 2) as calc:
            with pytest.raises(ValueError, match=f"atoms {i} and {j} are sep"):
                within_deadline(lambda: calc.compute(potential, moved, nlist))
            result = calc.compute(potential, atoms.copy(), nlist)
            assert calc.health_snapshot()["n_worker_deaths"] == 0
        assert walks[:2].tolist() == [2, 2]
        np.testing.assert_allclose(result.forces, forces, atol=1e-10)

    @needs_fork
    @pytest.mark.linux
    @pytest.mark.parametrize("restart", [True, False])
    def test_worker_killed_mid_walk(self, restart, wide, walks):
        """Helper 1, the one forked worker, is stopped, so worker 0 — this
        process — walks into barrier 0 and waits there inside ``sdc_walk``;
        then helper 1 is SIGKILLed."""
        from repro.parallel.backends.processes import ProcessSDCCalculator

        potential, atoms, nlist, forces = wide
        with ProcessSDCCalculator(2, 2, restart_on_failure=restart) as calc:
            calc.compute(potential, atoms.copy(), nlist)
            victim = calc.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            started = time.monotonic()

            def kill_mid_walk():
                while walks[0] < 2:  # worker 0 started its walk
                    time.sleep(0.01)
                time.sleep(0.2)
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=kill_mid_walk, daemon=True)
            killer.start()
            if restart:
                result = within_deadline(
                    lambda: calc.compute(potential, atoms.copy(), nlist)
                )
                np.testing.assert_allclose(result.forces, forces, atol=1e-10)
                snapshot = calc.health_snapshot()
                assert (snapshot["n_worker_deaths"], snapshot["n_restarts"]) == (1, 1)
                assert victim not in calc.worker_pids()
            else:
                with pytest.raises(BackendError, match=r"worker\(s\) \[0\] died"):
                    within_deadline(lambda: calc.compute(potential, atoms.copy(), nlist))
            killer.join()
            assert time.monotonic() - started < 30.0


def tasks() -> set:
    """This process's threads, as ``/proc/self/task`` lists them."""
    return set(os.listdir("/proc/self/task"))


def cpu_ticks(tids) -> int:
    """utime + stime of threads ``tids``, in clock ticks."""
    total = 0
    for tid in tids:
        with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total


def process_ticks(pid: int) -> int:
    """utime + stime of process ``pid``, in clock ticks."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


@pytest.mark.linux
class TestTeam:
    """The walk's team: ``p - 1`` C helpers, started at the first walk,
    asleep between walks, joined at ``close``, not inherited by a fork."""

    def test_idle_helpers_use_no_cpu(self, wide, walks):
        potential, atoms, nlist, forces = wide
        before = tasks()
        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(2, 2, backend)
            result = strategy.compute(potential, atoms.copy(), nlist)
            helpers = tasks() - before
            assert len(helpers) == 1 and walks[:2].tolist() == [1, 1]
            time.sleep(0.05)  # past the helpers' spin after a walk
            used = cpu_ticks(helpers)
            time.sleep(0.5)
            used = cpu_ticks(helpers) - used
        assert used / os.sysconf("SC_CLK_TCK") < 0.01 * 0.5
        np.testing.assert_allclose(result.forces, forces, atol=1e-10)

    @needs_fork
    def test_idle_forked_helper_uses_no_cpu(self, wide, walks):
        """The process engine's helper sleeps on a shared futex between
        walks, as a thread helper does on a private one."""
        from repro.parallel.backends.processes import ProcessSDCCalculator

        potential, atoms, nlist, forces = wide
        with ProcessSDCCalculator(2, 2) as calc:
            result = calc.compute(potential, atoms.copy(), nlist)
            (helper,) = calc.worker_pids()
            assert walks[:2].tolist() == [1, 1]
            time.sleep(0.05)  # past the helper's spin after a walk
            used = process_ticks(helper)
            time.sleep(0.5)
            used = process_ticks(helper) - used
        assert used / os.sysconf("SC_CLK_TCK") < 0.01 * 0.5
        np.testing.assert_allclose(result.forces, forces, atol=1e-10)

    @pytest.mark.parametrize("owner", ["backend", "strategy", "simulation"])
    def test_close_joins_the_helpers(self, owner, wide, walks):
        from repro.md.integrators import VelocityVerlet
        from repro.md.simulation import Simulation

        potential, atoms, _, _ = wide
        before = tasks()
        backend = ThreadBackend(3)
        strategy = SDCStrategy(2, 3, backend)
        sim = Simulation(atoms.copy(), potential, strategy, VelocityVerlet(1e-3))
        assert tasks() == before  # nothing starts before the first walk
        sim.compute_forces()
        assert walks[:3].tolist() == [1, 1, 1]
        assert len(tasks() - before) == 2
        closer = {"backend": backend, "strategy": strategy, "simulation": sim}
        closer[owner].close()
        assert not tasks() - before
        closer[owner].close()  # a second close is a no-op
        assert not tasks() - before

    @needs_fork
    def test_a_forked_child_starts_its_own_team(self, wide, walks):
        """A team made before ``fork`` has no threads in the child: there
        the next walk starts a fresh one instead of ringing dead helpers,
        and the parent's team walks on."""
        potential, atoms, nlist, forces = wide
        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(2, 2, backend)
            strategy.compute(potential, atoms.copy(), nlist)
            team = backend.team(2)
            pid = os.fork()
            if pid == 0:  # the child's exit status says whether it walked right
                code = 1
                try:
                    signal.alarm(int(DEADLINE_S))  # a hang kills the child
                    result = strategy.compute(potential, atoms.copy(), nlist)
                    fresh = backend.team(2)
                    right = np.allclose(result.forces, forces, rtol=0, atol=1e-10)
                    code = 0 if right and fresh.usable and not team.usable else 1
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert walks[:2].tolist() == [2, 2]  # the child walked on threads
            assert team.usable and backend.team(2) is team
            result = within_deadline(
                lambda: strategy.compute(potential, atoms.copy(), nlist)
            )
        assert walks[:2].tolist() == [3, 3]
        np.testing.assert_allclose(result.forces, forces, atol=1e-10)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity"
)
@pytest.mark.parametrize("workers", [2, 3])
def test_threads_walk_on_one_cpu(wide, walks, workers):
    """More walkers than CPUs, all on one, with a short switch interval: a
    waiter that only spun would hold the CPU its siblings need; the yield
    after ``BARRIER_SPINS`` lets them run, and no update is lost.  The
    last evaluation is traced: each walker stamps its own row of marks."""
    from repro.obs.tracer import CAT_TASK, Tracer

    potential, atoms, nlist, forces = wide
    tracer = Tracer()

    def pinned():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # this thread
        # its pool threads inherit the one CPU
        with ThreadBackend(workers) as backend:
            strategy = SDCStrategy(2, workers, backend)
            results = [
                strategy.compute(potential, atoms.copy(), nlist) for _ in range(2)
            ]
            strategy.attach_tracer(tracer)
            results.append(strategy.compute(potential, atoms.copy(), nlist))
            assert len(tracer.by_category(CAT_TASK)) == workers * (
                2 * strategy.schedule.n_colors + 1
            )
            return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = within_deadline(pinned)
    finally:
        sys.setswitchinterval(interval)
    assert walks[:workers].tolist() == [3] * workers
    for result in results:
        np.testing.assert_allclose(result.forces, forces, atol=1e-10)

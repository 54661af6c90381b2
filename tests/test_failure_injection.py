"""Failure injection: broken inputs and crashing components must fail
loudly and leave no corrupted state behind."""

import os
import signal
import time

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList, build_neighbor_list
from repro.parallel.backends import SerialBackend, ThreadBackend
from repro.potentials import fe_potential
from repro.potentials.base import EAMPotential
from repro.utils.arrays import CSR


class ExplodingPotential(EAMPotential):
    """A potential that detonates after N evaluations (worker-crash sim)."""

    def __init__(self, fuse: int = 0) -> None:
        self._inner = fe_potential()
        self._fuse = fuse
        self.calls = 0

    @property
    def cutoff(self) -> float:
        return self._inner.cutoff

    def _tick(self) -> None:
        self.calls += 1
        if self.calls > self._fuse:
            raise RuntimeError("potential exploded")

    def density(self, r):
        self._tick()
        return self._inner.density(r)

    def density_deriv(self, r):
        return self._inner.density_deriv(r)

    def pair_energy(self, r):
        return self._inner.pair_energy(r)

    def pair_energy_deriv(self, r):
        return self._inner.pair_energy_deriv(r)

    def embed(self, rho):
        return self._inner.embed(rho)

    def embed_deriv(self, rho):
        return self._inner.embed_deriv(rho)


class TestCrashingKernels:
    def test_thread_backend_surfaces_worker_crash(
        self, sdc_atoms, sdc_nlist
    ):
        from repro.core.strategies import SDCStrategy

        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(dims=2, n_threads=2, backend=backend)
            with pytest.raises(RuntimeError, match="exploded"):
                strategy.compute(
                    ExplodingPotential(fuse=2), sdc_atoms.copy(), sdc_nlist
                )

    def test_process_backend_surfaces_worker_crash(self, sdc_atoms, sdc_nlist):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from repro.parallel.backends.processes import ProcessSDCCalculator

        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        with pytest.raises(Exception, match="exploded"):
            calc.compute(ExplodingPotential(fuse=0), sdc_atoms.copy(), sdc_nlist)

    def test_process_backend_cleans_shared_memory(self, sdc_atoms, sdc_nlist, potential):
        """Shared segments are unlinked even when workers crash."""
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from multiprocessing import resource_tracker

        from repro.parallel.backends.processes import ProcessSDCCalculator

        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        try:
            calc.compute(ExplodingPotential(fuse=0), sdc_atoms.copy(), sdc_nlist)
        except Exception:
            pass
        # a fresh compute must work (no stale segments / state)
        result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert np.isfinite(result.potential_energy)


class KamikazePotential(ExplodingPotential):
    """Potential whose density function (reached through the composed
    ``pair_terms`` default) SIGKILLs its own worker."""

    def density(self, r):
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.slow
@pytest.mark.linux
class TestWorkerKill:
    """SIGKILL against the persistent pool: never a hang, never partial
    scatters — either a transparent restart with correct forces or the
    documented :class:`BackendError`."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")

    def test_killed_worker_restarts_transparently(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        import os
        import signal

        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            victim = calc.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # default policy: the broken pool is detected, restarted, and
            # the evaluation retried from the zero fill — correct forces
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-12
            )
            assert victim not in calc.worker_pids()

    def test_killed_worker_raises_backend_error_without_retry(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        import os
        import signal

        from repro.parallel.backends import BackendError
        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(
            dims=2, n_workers=2, restart_on_failure=False
        ) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            os.kill(calc.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(BackendError):
                calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            # the failure is clean: the next call re-creates the pool
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-12
            )

    def test_mid_phase_suicide_surfaces_backend_error(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        from repro.parallel.backends import BackendError
        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            # the kamikaze kills its worker on both the original attempt
            # and the post-restart retry -> the documented error, no hang
            with pytest.raises(BackendError):
                calc.compute(
                    KamikazePotential(), sdc_atoms.copy(), sdc_nlist
                )
            # the calculator itself stays usable with a sane potential
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-12
            )


@pytest.mark.linux
class TestWorkerHang:
    """A hung (not dead) worker never answers; the engine core's
    per-phase timeout must turn that into the same respawn-and-retry as a
    death instead of blocking ``compute`` forever."""

    def test_stopped_shard_worker_is_replaced(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        import multiprocessing as mp
        import os
        import signal

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        with ShardedSDCCalculator(n_shards=2, timeout_s=1.0) as calc:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            victim = calc.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-10
            )
            snapshot = calc.health_snapshot()
            assert snapshot["n_restarts"] == 1
            assert snapshot["n_pool_spawns"] == 2
            assert victim not in calc.worker_pids()
            assert not os.path.exists(f"/proc/{victim}")


class OrdersPotential(ExplodingPotential):
    """Fe whose density function (reached through the composed
    ``pair_terms`` default) obeys an orders file ``"<pid> <order>"``: the
    named process SIGKILLs itself — after its driver, for ``orphan`` —
    and every other process naps first, so it is still on its way to the
    barrier when its sibling is already gone.  No file, no effect."""

    def __init__(self, orders: str) -> None:
        super().__init__(fuse=10**9)
        self._orders = orders

    def density(self, r):
        import os
        import signal
        import time

        try:
            with open(self._orders, encoding="ascii") as handle:
                victim, order = handle.read().split()
        except FileNotFoundError:
            return self._inner.density(r)
        if int(victim) == os.getpid():
            if order == "orphan":
                os.kill(os.getppid(), signal.SIGKILL)
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.05)
        return self._inner.density(r)


def _running(pid: int) -> bool:
    """Alive and not a zombie waiting for some pid 1 to reap it."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except OSError:
        return False


@pytest.mark.linux
class TestDeathBehindTheBarrier:
    """A worker that dies mid-evaluation leaves its sibling waiting at an
    in-arena barrier no reply will ever release: the parent must see the
    death at once (process sentinels, not reply order), set the abort
    word and finish collecting — at the default 120 s timeout, in
    seconds."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")

    @pytest.fixture(scope="class")
    def wide(self, potential):
        """4 x 4 subdomains, so both workers have pairs in every color:
        ``(atoms, nlist, serial forces)``."""
        from repro.harness.cases import Case
        from repro.potentials import compute_eam_forces_serial

        atoms = Case(key="w", label="w", n_cells=12).build(seed=4)
        nlist = build_neighbor_list(
            atoms.positions, atoms.box, cutoff=potential.cutoff, skin=0.3
        )
        reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)
        return atoms, nlist, reference.forces

    @staticmethod
    def make(engine, **kwargs):
        from repro.parallel.backends.processes import ProcessSDCCalculator
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        if engine == "processes":
            return ProcessSDCCalculator(dims=2, n_workers=2, **kwargs)
        return ShardedSDCCalculator(n_shards=2, **kwargs)

    # both engines run one barriered body, so either victim leaves its
    # sibling waiting at the first barrier after density (for the shards,
    # the one the rho pull waits behind)
    @pytest.mark.parametrize(
        "engine,victim",
        [("processes", 0), ("processes", 1), ("sharded", 0), ("sharded", 1)],
    )
    def test_one_killed_worker_restarts_transparently(
        self, engine, victim, tmp_path, wide
    ):
        import time

        atoms, nlist, forces = wide
        orders = tmp_path / "orders"
        potential = OrdersPotential(str(orders))
        with self.make(engine) as calc:
            assert calc.timeout_s == 120.0
            calc.compute(potential, atoms.copy(), nlist)
            pids = calc.worker_pids()
            orders.write_text(f"{pids[victim]} die")
            started = time.monotonic()
            result = calc.compute(potential, atoms.copy(), nlist)
            assert time.monotonic() - started < 5.0
            assert np.allclose(result.forces, forces, atol=1e-10)
            snapshot = calc.health_snapshot()
            assert snapshot["n_worker_deaths"] == 1
            assert snapshot["n_restarts"] == 1
            assert not set(pids) & set(calc.worker_pids())
            assert not [pid for pid in pids if _running(pid)]

    def test_one_killed_worker_is_a_backend_error_without_retry(
        self, tmp_path, wide
    ):
        import time

        from repro.parallel.backends import BackendError

        atoms, nlist, forces = wide
        orders = tmp_path / "orders"
        potential = OrdersPotential(str(orders))
        with self.make("processes", restart_on_failure=False) as calc:
            calc.compute(potential, atoms.copy(), nlist)
            orders.write_text(f"{calc.worker_pids()[1]} die")
            started = time.monotonic()
            with pytest.raises(BackendError, match=r"worker\(s\) \[1\] died"):
                calc.compute(potential, atoms.copy(), nlist)
            assert time.monotonic() - started < 5.0
            orders.unlink()
            result = calc.compute(potential, atoms.copy(), nlist)
            assert np.allclose(result.forces, forces, atol=1e-10)

    def test_stopped_worker_times_out_and_waiters_are_killed(
        self, potential, sdc_atoms, sdc_nlist
    ):
        """A hung sibling is the ``timeout_s`` path: the waiter spins at
        the barrier until ``stop()`` kills it with the rest."""
        import os
        import signal

        from repro.parallel.backends import BackendError

        with self.make("processes", restart_on_failure=False) as calc:
            calc.timeout_s = 0.5
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            pids = calc.worker_pids()
            os.kill(pids[0], signal.SIGSTOP)
            with pytest.raises(BackendError, match="timed out"):
                calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert not [pid for pid in pids if _running(pid)]

    def test_killed_driver_leaves_no_spinning_orphan(self, tmp_path):
        """Worker 0 SIGKILLs the driver, then itself; worker 1 reaches a
        barrier nobody will join or abort — it must notice the re-parenting
        and exit."""
        import os
        import signal
        import subprocess
        import sys
        import time

        import repro

        driver = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_failure_injection import OrdersPotential\n"
            "from repro.harness.cases import Case\n"
            "from repro.md import build_neighbor_list\n"
            "from repro.parallel.backends.processes import ProcessSDCCalculator\n"
            "potential = OrdersPotential(sys.argv[2])\n"
            "atoms = Case(key='o', label='o', n_cells=8).build(seed=1)\n"
            "nlist = build_neighbor_list(atoms.positions, atoms.box,\n"
            "    cutoff=potential.cutoff, skin=0.3, half=True)\n"
            "calc = ProcessSDCCalculator(dims=2, n_workers=2)\n"
            "calc.compute(potential, atoms, nlist)\n"
            "pids = calc.worker_pids()\n"
            "open(sys.argv[2], 'w').write(f'{pids[0]} orphan')\n"
            "print(*pids, flush=True)\n"
            "calc.compute(potential, atoms, nlist)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        process = subprocess.Popen(
            [sys.executable, "-c", driver, os.path.dirname(__file__),
             str(tmp_path / "orders")],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True,
        )
        # not communicate(): an orphan would hold the pipe open
        pids = [int(pid) for pid in process.stdout.readline().split()]
        try:
            assert len(pids) == 2
            assert process.wait(timeout=60) == -signal.SIGKILL
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            process.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


#: past the helpers' yielding after a walk: asleep on the doorbell
ASLEEP_S = 0.1


@pytest.mark.linux
class TestHelperAsleepOnTheBell:
    """The process engine's doorbell team (C tier, a potential that
    lowers): the caller walks as worker 0 and ``p - 1`` forked helpers
    sleep on a shared futex between walks.  A helper killed there, or its
    parent killed under it, is never a hang."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")

    @staticmethod
    def asleep(calc, potential, atoms, nlist):
        """One evaluation, then the helpers' pids once they sleep."""
        calc.compute(potential, atoms.copy(), nlist)
        if not calc.caller_walks():
            pytest.skip("no doorbell team: the active tier has no walker")
        time.sleep(ASLEEP_S)
        return calc.worker_pids()

    def test_killed_helper_restarts_transparently(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(dims=2, n_workers=2) as calc:
            pids = self.asleep(calc, potential, sdc_atoms, sdc_nlist)
            os.kill(pids[0], signal.SIGKILL)
            started = time.monotonic()
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert time.monotonic() - started < 5.0
            assert np.allclose(result.forces, reference_result.forces, atol=1e-12)
            snapshot = calc.health_snapshot()
            assert (snapshot["n_worker_deaths"], snapshot["n_restarts"]) == (1, 1)
            assert pids[0] not in calc.worker_pids()

    def test_killed_helper_is_a_backend_error_without_retry(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        from repro.parallel.backends import BackendError
        from repro.parallel.backends.processes import ProcessSDCCalculator

        with ProcessSDCCalculator(
            dims=2, n_workers=3, restart_on_failure=False
        ) as calc:
            pids = self.asleep(calc, potential, sdc_atoms, sdc_nlist)
            os.kill(pids[1], signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(BackendError, match=r"worker\(s\) \[1\] died"):
                calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert time.monotonic() - started < 5.0
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(result.forces, reference_result.forces, atol=1e-12)
        assert not [pid for pid in pids if _running(pid)]

    def test_killed_parent_leaves_no_sleeping_orphan(self, tmp_path):
        """The parent walks once, then idles; SIGKILLed there, its helper
        asleep on the bell must notice and exit."""
        import subprocess
        import sys

        import repro

        script = (
            "import sys, time\n"
            "from repro.harness.cases import Case\n"
            "from repro.md import build_neighbor_list\n"
            "from repro.parallel.backends.processes import ProcessSDCCalculator\n"
            "from repro.potentials import fe_potential\n"
            "potential = fe_potential()\n"
            "atoms = Case(key='o', label='o', n_cells=8).build(seed=1)\n"
            "nlist = build_neighbor_list(atoms.positions, atoms.box,\n"
            "    cutoff=potential.cutoff, skin=0.3, half=True)\n"
            "calc = ProcessSDCCalculator(dims=2, n_workers=2)\n"
            "calc.compute(potential, atoms, nlist)\n"
            "print(int(calc.caller_walks()), *calc.worker_pids(), flush=True)\n"
            "time.sleep(60)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True,
        )
        walks, *pids = [int(word) for word in process.stdout.readline().split()]
        try:
            if not walks:
                pytest.skip("no doorbell team: the active tier has no walker")
            assert len(pids) == 1
            time.sleep(ASLEEP_S)
            process.kill()
            assert process.wait(timeout=60) == -signal.SIGKILL
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            process.kill()
            process.wait()
            process.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


@pytest.mark.linux
class TestHelperLostInARing:
    """The process engine's step ring (C tier, a lowering potential): the
    driver runs each step as one ring of the doorbell team, and no row
    moves before every helper joined it.  A helper killed asleep between
    steps is replaced and the ring rung again; one killed after the join
    leaves a half-moved step, which surfaces as ``BackendError`` and is
    never replayed."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")

    @staticmethod
    def ringing(potential, calc):
        """A driver on a fresh hot crystal that has rung its first steps."""
        from repro.harness.cases import Case
        from repro.md.simulation import Simulation

        atoms = Case(key="r", label="r", n_cells=8).build(
            perturbation=0.05, temperature=300.0, seed=7
        )
        sim = Simulation(atoms, potential, calc)
        sim.run(3)
        if not calc.caller_walks():
            sim.close()
            pytest.skip("no doorbell team: the active tier has no walker")
        return sim

    def test_helper_killed_between_steps_restarts_transparently(self, potential):
        from repro.parallel.backends.processes import ProcessSDCCalculator

        def run(kill: bool):
            calc = ProcessSDCCalculator(dims=2, n_workers=2)
            with self.ringing(potential, calc) as sim:
                pid = calc.worker_pids()[0]
                if kill:
                    time.sleep(ASLEEP_S)
                    os.kill(pid, signal.SIGKILL)
                started = time.monotonic()
                sim.run(1)
                assert time.monotonic() - started < 5.0
                sim.run(10)
                return sim.atoms.copy(), calc.health_snapshot(), pid

        want, calm, _ = run(kill=False)
        got, snapshot, pid = run(kill=True)
        assert (calm["n_worker_deaths"], calm["n_pool_spawns"]) == (0, 1)
        assert (snapshot["n_worker_deaths"], snapshot["n_restarts"]) == (1, 1)
        assert snapshot["n_pool_spawns"] == 2 and pid not in snapshot["worker_pids"]
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_array_equal(got.velocities, want.velocities)

    def test_helper_killed_mid_ring_is_an_error_not_retried(
        self, potential, monkeypatch
    ):
        """Worker 0 posts its join by hand, waits until the helper has
        kick-drifted its rows, kills it, then walks: it meets the dead
        helper at the next barrier."""
        from repro import kernels
        from repro.parallel.backends import BackendError
        from repro.parallel.backends.processes import ProcessSDCCalculator

        tier = kernels.active_tier()
        if tier.name != "c":
            pytest.skip("the doorbell team needs the C tier")
        calc = ProcessSDCCalculator(dims=2, n_workers=2)
        real, armed, walks = tier._c_walk, [], []

        def walk(shared, ranges, lo, hi, waiter, base, *rest):
            walks.append(base)
            if armed:
                armed.clear()
                words = calc._live.arena.barrier[:, 0]
                words[1] = base  # worker 0 at the join: the helper goes
                deadline = time.monotonic() + 5.0
                while words[2] < base + 1 and time.monotonic() < deadline:
                    pass  # the helper kick-drifted and waits at the next
                os.kill(calc.worker_pids()[0], signal.SIGKILL)
            return real(shared, ranges, lo, hi, waiter, base, *rest)

        monkeypatch.setattr(tier, "_c_walk", walk)
        with self.ringing(potential, calc) as sim:
            del walks[:]
            armed.append(1)
            started = time.monotonic()
            with pytest.raises(BackendError, match=r"worker\(s\) \[0\] died"):
                sim.run(1)
            assert time.monotonic() - started < 5.0
            assert len(walks) == 1  # not rung again
            snapshot = calc.health_snapshot()
            assert (snapshot["n_worker_deaths"], snapshot["n_restarts"]) == (1, 0)
            sim.run(2)  # the next step respawns
            assert calc.health_snapshot()["n_pool_spawns"] == 2
            assert np.isfinite(sim.atoms.positions).all()


class TestMalformedStructures:
    def test_neighbor_list_with_corrupt_csr_rejected(self):
        with pytest.raises(ValueError):
            CSR(offsets=np.array([0, 5]), values=np.array([1, 2]))

    def test_reorder_rejects_partial_permutation(self, sdc_nlist):
        from repro.core.reorder import remap_neighbor_list

        bad = np.zeros(sdc_nlist.n_atoms, dtype=np.int64)  # not a permutation
        with pytest.raises(ValueError, match="permutation"):
            remap_neighbor_list(sdc_nlist, bad)

    def test_pair_partition_rejects_foreign_list(self, sdc_atoms, sdc_nlist):
        from repro.core.domain import decompose
        from repro.core.partition import build_pair_partition, build_partition

        grid = decompose(sdc_atoms.box, 3.9, dims=2)
        partition = build_partition(sdc_nlist.reference_positions, grid)
        foreign = build_neighbor_list(
            sdc_atoms.positions[:100], sdc_atoms.box, 3.6, skin=0.3
        )
        with pytest.raises(ValueError):
            build_pair_partition(partition, foreign)

    def test_stale_neighbor_list_detected(self, potential):
        """The driver rebuilds when atoms outrun the skin — no silent
        wrong-physics window."""
        from repro.harness.cases import Case
        from repro.md.simulation import Simulation

        atoms = Case(key="f", label="f", n_cells=4).build(seed=1)
        sim = Simulation(atoms, potential, skin=0.2)
        first = sim.ensure_neighbor_list()
        atoms.positions[0] += 0.5  # way past skin/2
        second = sim.ensure_neighbor_list()
        assert second is not first


def _calculators():
    """Every force calculator by name (built lazily: two of them fork)."""
    from repro.core import strategies
    from repro.core.strategies.pairwise import SDCPairCalculator, SerialPairCalculator
    from repro.md.simulation import SerialCalculator
    from repro.parallel.backends.processes import ProcessSDCCalculator
    from repro.parallel.backends.sharded import ShardedSDCCalculator

    made = {
        "serial-kernels": SerialCalculator,
        "sdc-processes": lambda: ProcessSDCCalculator(dims=2, n_workers=2),
        "sdc-sharded": lambda: ShardedSDCCalculator(n_shards=2, engine="inline"),
        "pair-serial": SerialPairCalculator,
        "pair-sdc": lambda: SDCPairCalculator(dims=2, n_threads=2),
    }
    for name, cls in strategies.STRATEGY_REGISTRY.items():
        made[name] = cls if name == "serial" else (
            lambda cls=cls: cls(n_threads=2)
        )
    return made


class TestListOverTheWrongAtomCount:
    """A neighbour list built over another system is named, by every
    calculator, before anything is computed: a shorter list used to leave
    the uncovered rows at zero without a word (serial, SDC, LOCALWRITE), a
    longer one to die in a gather with a bare ``IndexError``."""

    @pytest.fixture(scope="class")
    def larger(self, potential):
        from repro.harness.workloads import uniform_crystal

        atoms = uniform_crystal(9, seed=3)
        assert atoms.n_atoms == 1458
        return atoms, build_neighbor_list(
            atoms.positions, atoms.box, cutoff=potential.cutoff, skin=0.3
        )

    @pytest.mark.parametrize("name", sorted(_calculators()))
    def test_named_by_every_calculator(
        self, name, potential, sdc_atoms, sdc_nlist, larger
    ):
        big_atoms, big_nlist = larger
        calculator = _calculators()[name]()
        try:
            for atoms, nlist, text in (
                (big_atoms, sdc_nlist, "covers 1024 atoms, system has 1458"),
                (sdc_atoms, big_nlist, "covers 1458 atoms, system has 1024"),
            ):
                atoms = atoms.copy()
                atoms.forces[:] = 7.0
                with pytest.raises(ValueError, match="neighbor list " + text):
                    calculator.compute(potential, atoms, nlist)
                assert np.all(atoms.forces == 7.0)
        finally:
            getattr(calculator, "close", lambda: None)()


class TestStopwatchExceptionSafety:
    def test_section_records_time_on_exception(self):
        """A span is still recorded, and still counted toward its phase,
        when its body raises."""
        from repro.obs.tracer import Tracer
        from repro.utils.profiler import phase_samples

        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing", phase="density"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.name == "failing"
        assert phase_samples(tracer.spans) == {"density": [span.duration_s]}


class TestBackendPartialPhase:
    def test_serial_backend_settles_phase_before_raising(self):
        """Serial honors the same barrier contract as the parallel
        backends: exceptions surface only after every submitted task
        settled (a parallel backend cannot un-submit the rest of a
        phase, so serial must not abort it either — the backend
        conformance suite pins this across all backends)."""
        log = []

        def ok(k):
            return lambda: log.append(k)

        def boom():
            raise RuntimeError("task 2 died")

        backend = SerialBackend()
        with pytest.raises(RuntimeError, match="task 2 died"):
            backend.run_phase([ok(0), ok(1), boom, ok(3)])
        assert log == [0, 1, 3]  # in order, and the phase ran to the barrier

    def test_thread_backend_runs_all_before_raising(self):
        import threading

        lock = threading.Lock()
        count = {"n": 0}

        def ok():
            with lock:
                count["n"] += 1

        def boom():
            raise RuntimeError("one of many")

        with ThreadBackend(2) as backend:
            with pytest.raises(RuntimeError):
                backend.run_phase([ok, boom, ok, ok])
        assert count["n"] == 3  # barrier waits for everything first

    def test_thread_backend_reraises_the_first_task_in_submission_order(self):
        """Two tasks raise: the first submitted one's error surfaces, every
        time — not whichever the completed-futures set iterates first."""
        import threading

        def boom(k, started):
            def run():
                started.wait()
                raise RuntimeError(f"task {k} died")

            return run

        with ThreadBackend(2) as backend:
            for _ in range(50):
                started = threading.Barrier(2)  # both raise, side by side
                with pytest.raises(RuntimeError, match="task 0 died"):
                    backend.run_phase([boom(0, started), boom(1, started)])

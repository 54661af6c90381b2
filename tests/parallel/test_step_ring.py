"""The step ring: one MD step on a team as one walk per worker —
kick-drift of its rows, one more barrier and the Verlet check, the
``2C + 1`` phases of the evaluation, the closing kick — on the thread team
of ``SDCStrategy``, in :class:`TestOnProcesses` on the doorbell team of
``ProcessSDCCalculator`` (forked helpers, the atoms in its arena), and in
:class:`TestOnSerial` as ``SerialCalculator``'s one-worker walk over the
whole list (bit-identical to its three calls, energies and moments too).

* trajectories: positions and velocities bit-identical to the three
  calls and to the strategy's serial pass over 200 steps with as many
  rebuilds (and to ``SerialCalculator`` within 1e-9 Å), on the skin check
  and on a forced ``rebuild_every=3``; the ring's forces bit-identical to
  the plain walk's; per-type masses changed mid-run are the three calls'
  too (a forked helper reads them from the walk's block);
* moments: the ring sums each block's seven partials in atom order and
  then the blocks ``k = 0 .. p - 1``, within 1e-12 of the serial pass;
* a NaN position fails the ring's Verlet check, and the rebuild names the
  atom and axis;
* failures never hang: worker 0 raising mid-ring releases the helper
  waiting at the kick-drift's barrier, and a type outside the tables
  stops the ring with the NumPy tier's ``IndexError`` (a lost forked
  helper is ``tests/test_failure_injection.py``'s);
* routing: the NumPy tier, an instrument, a backend observer, ``Euler``,
  ``record_writes``, a potential that does not lower and a multi-shard
  engine never ring (and a step off the ring spans one evaluation), nor
  does a driver subclass that hooks ``compute_forces`` or
  ``ensure_neighbor_list``; a wrapper that forwards every lookup rings;
* the process engine's atoms: on a ringed step they are the arena's rows,
  a reorder or a reassigned array is copied in once, and ``close()``
  hands them back as private arrays;
* the ring's trace: its two kicks are ``integrate`` rows, and the rows of
  its phase table add up to the window the team walked;
* fewer CPUs than workers: pinned to one CPU, rings finish.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import threading

import numpy as np
import pytest

from repro import kernels
from repro.analysis.racecheck import WriteRecorder
from repro.core.strategies.sdc import SDCStrategy
from repro.harness.cases import Case
from repro.md import build_neighbor_list
from repro.kernels.c_tier import SDCWalk
from repro.md.integrators import REBUILD, Euler, VelocityVerlet
from repro.md.simulation import SerialCalculator, Simulation
from repro.obs.tracer import Tracer
from repro.parallel.backends import ThreadBackend
from repro.parallel.backends.base import PhaseObserver
from repro.parallel.backends.processes import ProcessSDCCalculator
from repro.parallel.backends.sharded import ShardedSDCCalculator, ShardEngine
from repro.parallel.backends.workers import ATOM_FIELDS, _Live
from repro.potentials import fe_potential
from repro.potentials.johnson_fe import JohnsonFePotential

#: a hung barrier fails the test instead of the run
DEADLINE_S = 60.0


@pytest.fixture(autouse=True)
def c_tier():
    """Every test here runs on the C tier, the one with a team."""
    if "c" not in kernels.available_tiers():
        pytest.skip(f"C tier unavailable: {kernels.tier_status()['c']['reason']}")
    with kernels.use_tier("c") as tier:
        yield tier


def threads(workers=2):
    return SDCStrategy(2, workers, ThreadBackend(workers))


def processes(workers=2):
    return ProcessSDCCalculator(dims=2, n_workers=workers)


def serial(workers=1):
    """One worker whatever ``workers`` asks: the caller walks alone."""
    return SerialCalculator()


@pytest.fixture()
def engine():
    """``engine(workers=2)``, the calculator whose steps ring: the thread
    team's here, the process engine's in :class:`TestOnProcesses`, the
    serial one's in :class:`TestOnSerial`."""
    return threads


@pytest.fixture()
def rings(monkeypatch):
    """``rings``: every ``verlet_ring`` answer, REBUILD or the kind of
    ring that ran (``"kick-drift"``, ``"kick"``), None where none ran."""
    answers = []

    def spying(real):
        def spy(self, potential, atoms, nlist, kicks, half_skin):
            out = real(self, potential, atoms, nlist, kicks, half_skin)
            kind = "kick" if half_skin is None else "kick-drift"
            answers.append(out if out is None or out is REBUILD else kind)
            return out

        return spy

    for engine in (SDCStrategy, ShardEngine, SerialCalculator):
        monkeypatch.setattr(engine, "verlet_ring", spying(engine.verlet_ring))
    return answers


def within_deadline(call):
    """``call()`` on a helper thread; its value, or a failure naming the
    hang."""
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


def build(temperature=300.0, cells=10):
    return Case("ring", "step ring", cells).build(
        perturbation=0.05, temperature=temperature, seed=7
    )


def simulate(calculator, steps, integrator=None, **kwargs):
    """``(atoms, report)`` after ``steps`` steps from the ``build()`` state."""
    atoms = build()
    with Simulation(
        atoms, fe_potential(), calculator, integrator or VelocityVerlet(1e-3),
        **kwargs,
    ) as sim:
        report = sim.run(steps)
    return atoms, report


class ThreeCalls:
    """``inner`` offering only ``compute``: the driver runs each step as
    ``first_half``, one evaluation and ``second_half``."""

    def __init__(self, inner):
        self._inner = inner

    def compute(self, *args):
        return self._inner.compute(*args)

    def close(self):
        getattr(self._inner, "close", lambda: None)()


class Forwarding:
    """A wrapper that forwards every lookup to ``inner`` (the benchmark's
    span proxies have this shape)."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestTrajectory:
    @pytest.mark.parametrize("cadence", [None, 3])
    def test_bit_identical_to_the_three_calls(self, engine, cadence, rings):
        """Against the same engine through ``first_half``, the walk and
        ``second_half``, and against the strategy's serial pass (the
        per-colour route on one thread): bit for bit, as many rebuilds;
        against ``SerialCalculator``, whose pair order sums each atom's
        terms in another order: as many rebuilds, positions to 1e-9 Å."""
        want, want_report = simulate(ThreeCalls(engine()), 200, rebuild_every=cadence)
        one, one_report = simulate(SDCStrategy(2, 2), 200, rebuild_every=cadence)
        assert not rings
        got, got_report = simulate(engine(), 200, rebuild_every=cadence)
        serial, serial_report = simulate(
            ThreeCalls(SerialCalculator()), 200, rebuild_every=cadence
        )
        assert None not in rings  # every step rang, a rebuild's twice
        assert rings.count("kick-drift") + rings.count(REBUILD) == 200
        assert rings.count(REBUILD) == rings.count("kick") > 0
        assert got_report.n_neighbor_rebuilds == want_report.n_neighbor_rebuilds
        assert got_report.n_neighbor_rebuilds == serial_report.n_neighbor_rebuilds
        if cadence is not None:  # the list's first build, then every 3rd step
            assert got_report.n_neighbor_rebuilds >= 200 // cadence
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_array_equal(got.velocities, want.velocities)
        np.testing.assert_array_equal(got.forces, want.forces)
        assert one_report.n_neighbor_rebuilds == got_report.n_neighbor_rebuilds
        np.testing.assert_array_equal(got.positions, one.positions)
        np.testing.assert_array_equal(got.velocities, one.velocities)
        np.testing.assert_allclose(got.positions, serial.positions, rtol=0, atol=1e-9)
        for got_record, want_record in zip(got_report.records, want_report.records):
            assert got_record.potential_energy == want_record.potential_energy
            assert got_record.kinetic_energy == pytest.approx(
                want_record.kinetic_energy, rel=1e-12
            )

    def test_forces_are_the_walks(self, engine, rings):
        """The ring's last evaluation and a plain walk of its positions."""
        potential = fe_potential()
        atoms = build()
        with Simulation(atoms, potential, engine()) as sim:
            sim.run(20)
            walked = sim.calculator.compute(potential, atoms.copy(), sim.nlist)
        assert "kick-drift" in rings
        np.testing.assert_array_equal(atoms.forces, walked.forces)
        np.testing.assert_array_equal(atoms.rho, walked.rho)


def test_moments_match_the_serial_pass(engine):
    """One ring against the three calls on a copy (the same forces, kicked
    in one pass over every atom): the same atoms and evaluation, and the
    moments — each block's partials summed in atom order, then the blocks
    ``k = 0 .. p - 1`` — within 1e-12 of the sums of their terms' sizes."""
    potential, integrator = fe_potential(), VelocityVerlet(1e-3)
    atoms = build()
    with Simulation(atoms, potential, engine(3), integrator) as sim:
        sim.run(3)
        twin = atoms.copy()
        out = sim.calculator.verlet_ring(
            potential, atoms, sim.nlist, integrator.kicks(atoms),
            sim.nlist.skin / 2.0,
        )
        integrator.first_half(twin)
        walked = sim.calculator.compute(potential, twin, sim.nlist)
        want = integrator.second_half(twin)
    assert out is not None and out is not REBUILD
    result, sums = out
    got = integrator.moments(*sums)
    np.testing.assert_array_equal(atoms.positions, twin.positions)
    np.testing.assert_array_equal(atoms.velocities, twin.velocities)
    assert (result.pair_energy, result.embedding_energy) == (
        walked.pair_energy, walked.embedding_energy
    )
    assert got.kinetic == pytest.approx(want.kinetic, rel=1e-12, abs=0)
    momenta = twin.mass_per_atom()[:, None] * twin.velocities
    for have, expect, size in (
        (got.momentum, want.momentum, np.abs(momenta).sum(axis=0)),
        (got.force_sum, want.force_sum, np.abs(twin.forces).sum(axis=0)),
    ):
        assert np.all(np.abs(np.subtract(have, expect)) <= 1e-12 * size)


def test_a_nan_position_fails_the_check_and_the_rebuild_names_it(engine, rings):
    atoms = build()
    with Simulation(atoms, fe_potential(), engine()) as sim:
        sim.run(2)
        atoms.positions[17, 1] = np.nan
        with pytest.raises(ValueError, match=r"first at index \(17, 1\)"):
            within_deadline(lambda: sim.run(1))
    assert rings[-1] is REBUILD


class TestFailures:
    def test_worker_0_raising_mid_ring_releases_the_helper(self, c_tier, monkeypatch):
        """Worker 0 raises instead of entering its ring; helper 1 waits at
        the kick-drift's barrier and must be let go, and the team rings the
        next step."""
        potential = fe_potential()
        atoms = build()
        real, raised, armed = c_tier._c_walk, [], []

        def walk(shared, ranges, lo, hi, waiter, *rest):
            if armed and not raised:
                raised.append(waiter)
                threading.Event().wait(0.2)  # helper 1 arrives first
                raise RuntimeError("worker 0 failed")
            return real(shared, ranges, lo, hi, waiter, *rest)

        monkeypatch.setattr(c_tier, "_c_walk", walk)
        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(2, 2, backend)
            with Simulation(atoms, potential, strategy) as sim:
                sim.run(1)
                armed.append(1)
                with pytest.raises(RuntimeError, match="worker 0 failed"):
                    within_deadline(lambda: sim.run(1))
                start, arrived, left = strategy._walk.marks[1, :3]
                # it aborted at barrier 0: its exit mark is the last ring's
                assert 0 < left < start < arrived
                report = within_deadline(lambda: sim.run(5))
        assert raised == [0] and len(report.records) >= 1
        assert np.isfinite(atoms.positions).all()

    def test_a_type_outside_the_tables_stops_the_ring(self, engine, rings):
        atoms = build()
        with Simulation(atoms, fe_potential(), engine()) as sim:
            sim.run(1)
            atoms.types[-1] = len(atoms.masses)  # the last block's worker
            with pytest.raises(IndexError, match="no entry in the kick's tables"):
                within_deadline(lambda: sim.run(1))
            atoms.types[-1] = 0
            within_deadline(lambda: sim.run(2))
        assert rings[-2:] == ["kick-drift", "kick-drift"]


class TestRouting:
    @pytest.mark.parametrize("setup", ["numpy-tier", "instrument", "observer", "euler"])
    def test_the_per_colour_route_never_rings(self, setup, monkeypatch):
        """The driver's steps on the NumPy tier, with a backend observer or
        with ``Euler`` match the serial ones and never arm a ring; with an
        instrument (which watches one evaluation) the ring declines,
        nothing touched."""
        armed = []
        real = SDCWalk.ring
        monkeypatch.setattr(
            SDCWalk, "ring", lambda self, *a: armed.append(1) or real(self, *a)
        )
        backend = ThreadBackend(2)
        strategy = SDCStrategy(2, 2, backend)
        if setup == "observer":
            backend.attach_observer(PhaseObserver())
        tier = kernels.use_tier("numpy" if setup == "numpy-tier" else "c")
        if setup == "instrument":
            strategy.attach_instrument(WriteRecorder())
            potential, atoms = fe_potential(), build()
            nlist = build_neighbor_list(
                atoms.positions, atoms.box, cutoff=potential.cutoff, skin=0.3,
                half=True,
            )
            with backend:
                strategy.compute(potential, atoms, nlist)
                before = atoms.copy()
                kicks = VelocityVerlet(1e-3).kicks(atoms)
                assert strategy.verlet_ring(potential, atoms, nlist, kicks, 0.15) is None
            for name in ("positions", "velocities", "forces", "rho"):
                np.testing.assert_array_equal(getattr(atoms, name), getattr(before, name))
        else:
            integrator, tracer = Euler(1e-3) if setup == "euler" else None, Tracer()
            with tier:
                got, _ = simulate(strategy, 5, integrator, tracer=tracer)
                want, _ = simulate(ThreeCalls(SerialCalculator()), 5, integrator)
            np.testing.assert_allclose(got.positions, want.positions, atol=1e-9)
            # the first evaluation, then one a step: no empty span of a ring
            assert [s.name for s in tracer.spans].count("forces") == 6
        assert not armed

    def test_a_multi_shard_engine_never_rings(self, rings, monkeypatch):
        """Two shards walk no team: the driver never offers the ring, the
        steps are the three calls', and nothing arms a walk."""
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        armed = []
        real = SDCWalk.ring
        monkeypatch.setattr(
            SDCWalk, "ring", lambda self, *a: armed.append(1) or real(self, *a)
        )
        got, _ = simulate(ShardedSDCCalculator(n_shards=2), 5)
        want, _ = simulate(ThreeCalls(SerialCalculator()), 5)
        np.testing.assert_allclose(got.positions, want.positions, atol=1e-9)
        assert not rings and not armed

    def test_a_forwarding_wrapper_rings(self, engine, rings):
        simulate(Forwarding(engine()), 4)
        assert rings == ["kick-drift"] * 4

    @pytest.mark.parametrize("hook", ["compute_forces", "ensure_neighbor_list"])
    def test_a_driver_subclass_that_hooks_a_step_keeps_the_three_calls(
        self, engine, hook, rings
    ):
        """Every step goes through the subclass's override, as the step
        benchmark's traced driver needs."""
        seen = []

        class Hooked(Simulation):
            pass

        def override(sim):
            seen.append(1)
            return getattr(Simulation, hook)(sim)

        setattr(Hooked, hook, override)
        atoms = build()
        with Hooked(atoms, fe_potential(), engine()) as sim:
            sim.run(4)
        assert not rings and len(seen) >= 5


def test_a_traced_ring_gives_integrate_rows_that_add_up(engine, rings):
    from repro.obs.tracer import CAT_REGION
    from repro.utils.profiler import (
        PHASE_BARRIER,
        PHASE_TOTAL,
        phase_names,
        phase_stats,
        render_phase_table,
    )

    potential, tracer = fe_potential(), Tracer()
    atoms = build()
    with Simulation(atoms, potential, engine()) as sim:
        sim.run(2)
        sim.calculator.attach_tracer(tracer)
        sim.run(1)
        sim.calculator.detach_tracer()
    assert rings[-1] == "kick-drift"
    regions = tracer.by_category(CAT_REGION)
    # the walk's phases; the process engine's sync and setup come before
    walked = [
        s for s in regions
        if s.args.get("phase") not in ("neighbor-rebuild", "sync", "setup")
    ]
    assert [s.name for s in walked if s.args["phase"] == "integrate"] == [
        "kick-drift", "kick",
    ]
    stats = phase_stats([s for s in tracer.spans if s not in regions or s in walked])
    assert "integrate" in stats and PHASE_BARRIER in stats
    window = max(s.end_s for s in walked) - min(s.start_s for s in walked)
    rows = [p for p in phase_names(stats) if p not in (PHASE_BARRIER, PHASE_TOTAL)]
    assert sum(stats[p].median_s for p in rows) == pytest.approx(window, abs=1e-12)
    assert f"  of which {PHASE_BARRIER}" in render_phase_table(stats)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity"
)
@pytest.mark.parametrize("workers", [2, 3])
def test_rings_on_one_cpu(engine, workers, rings):
    """More ring workers than CPUs, all on one, with a short switch
    interval: only the barriers' and the doorbell's yields let the sibling
    run, and the trajectory is the three calls' one."""
    want, _ = simulate(ThreeCalls(engine(workers)), 10)

    def pinned():
        # this thread, and so the helpers it forks
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return simulate(engine(workers), 10)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = within_deadline(pinned)
    finally:
        sys.setswitchinterval(interval)
    assert rings.count("kick-drift") == 10
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.velocities, want.velocities)


def test_masses_changed_mid_run_match_the_three_calls(engine, rings):
    """New per-type masses, made after any helper forked: each ring copies
    them and the step's ``scale`` into the walk's block, so no helper
    reads a parent's private memory, and the steps stay the three calls'."""

    def run(calculator):
        atoms = build()
        with Simulation(atoms, fe_potential(), calculator) as sim:
            sim.run(5)
            atoms.masses = atoms.masses * 1.5
            sim.run(10)
        return atoms

    want = run(ThreeCalls(engine()))
    got = run(engine())
    assert rings.count("kick-drift") + rings.count(REBUILD) == 15
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.velocities, want.velocities)


class UnloweredFe(JohnsonFePotential):
    """Fe under another class: the C tier cannot lower it."""


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)
class TestOnProcesses:
    """The ring tests above on ``ProcessSDCCalculator(n_workers=2)``: the
    caller walks as worker 0 beside a forked helper, and the atoms it
    rings are the arena's rows; then what only that engine has."""

    @pytest.fixture()
    def engine(self):
        return processes

    test_bit_identical_to_the_three_calls = (
        TestTrajectory.test_bit_identical_to_the_three_calls
    )
    test_forces_are_the_walks = TestTrajectory.test_forces_are_the_walks
    test_moments_match_the_serial_pass = staticmethod(
        test_moments_match_the_serial_pass
    )
    test_a_nan_position_fails_the_check_and_the_rebuild_names_it = staticmethod(
        test_a_nan_position_fails_the_check_and_the_rebuild_names_it
    )
    test_a_type_outside_the_tables_stops_the_ring = (
        TestFailures.test_a_type_outside_the_tables_stops_the_ring
    )
    test_a_forwarding_wrapper_rings = TestRouting.test_a_forwarding_wrapper_rings
    test_a_driver_subclass_that_hooks_a_step_keeps_the_three_calls = (
        TestRouting.test_a_driver_subclass_that_hooks_a_step_keeps_the_three_calls
    )
    test_a_traced_ring_gives_integrate_rows_that_add_up = staticmethod(
        test_a_traced_ring_gives_integrate_rows_that_add_up
    )
    test_rings_on_one_cpu = staticmethod(test_rings_on_one_cpu)
    test_masses_changed_mid_run_match_the_three_calls = staticmethod(
        test_masses_changed_mid_run_match_the_three_calls
    )

    @pytest.mark.parametrize(
        "setup", ["numpy-tier", "record-writes", "python-potential"]
    )
    def test_the_command_route_never_rings(self, setup, rings, monkeypatch):
        """Forked workers that run the per-colour body behind commands:
        the driver never offers them a ring, nothing arms a walk, and the
        steps match the serial ones."""
        armed = []
        real = SDCWalk.ring
        monkeypatch.setattr(
            SDCWalk, "ring", lambda self, *a: armed.append(1) or real(self, *a)
        )
        calc = ProcessSDCCalculator(
            dims=2, n_workers=2, record_writes=setup == "record-writes"
        )
        potential = UnloweredFe() if setup == "python-potential" else fe_potential()
        with kernels.use_tier("numpy" if setup == "numpy-tier" else "c"):
            atoms = build()
            with Simulation(atoms, potential, calc) as sim:
                sim.run(3)
                assert not calc.caller_walks()
            want, _ = simulate(ThreeCalls(SerialCalculator()), 3)
        np.testing.assert_allclose(atoms.positions, want.positions, atol=1e-9)
        assert not rings and not armed

    def test_a_ringed_step_walks_the_atoms_own_arrays(self, rings):
        """On a steady ringed step every per-atom array of the atoms is
        the arena's, where the forked helper walks it."""
        atoms = build()
        with Simulation(atoms, fe_potential(), processes()) as sim:
            sim.run(3)
            views = sim.calculator._live.views[0]
            for name in ATOM_FIELDS:
                assert getattr(atoms, name) is views[name]
                assert np.shares_memory(getattr(atoms, name), views[name])
        assert rings[-1] == "kick-drift"

    def test_a_reorder_and_a_new_array_are_copied_in_once(self, rings, monkeypatch):
        """``atoms.reorder`` (with the list remapped) and a reassigned
        ``atoms.velocities`` between two runs: the next ring copies the
        new arrays into the arena once, on the same helpers, and the
        trajectory is the three calls' one."""
        from repro.core.reorder import remap_neighbor_list

        copied = []
        real = _Live.adopt

        def adopt(live, atoms):
            views = live.views[0]
            copied.append([n for n in ATOM_FIELDS if getattr(atoms, n) is not views[n]])
            real(live, atoms)

        monkeypatch.setattr(_Live, "adopt", adopt)
        perm = np.random.default_rng(3).permutation(build().n_atoms)

        def run(calculator):
            atoms = build()
            engine = getattr(calculator, "_inner", calculator)
            with Simulation(atoms, fe_potential(), calculator) as sim:
                sim.run(3)
                spawns = engine.health_snapshot()["n_pool_spawns"]
                del copied[:]
                atoms.reorder(perm)
                sim.nlist = remap_neighbor_list(sim.nlist, perm)
                sim.run(3)
                atoms.velocities = atoms.velocities * 0.5
                sim.run(3)
                assert engine.health_snapshot()["n_pool_spawns"] == spawns
            return atoms

        want = run(ThreeCalls(processes()))
        assert not copied  # the three calls adopt nothing
        got = run(processes())
        assert [fields for fields in copied if fields] == [
            list(ATOM_FIELDS), ["velocities"],
        ]
        assert len(copied) == 6 and rings.count(None) == 0
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_array_equal(got.velocities, want.velocities)

    def test_close_hands_the_atoms_back_as_private_arrays(self, rings):
        """After ``close()`` the atoms hold private copies of the last
        state, and a ``SerialCalculator`` run continues from them."""
        potential = fe_potential()
        atoms = build()
        sim = Simulation(atoms, potential, processes())
        sim.run(5)
        views = dict(sim.calculator._live.views[0])
        last = atoms.copy()
        sim.close()
        for name in ATOM_FIELDS:
            assert not np.shares_memory(getattr(atoms, name), views[name])
            np.testing.assert_array_equal(getattr(atoms, name), getattr(last, name))
        assert rings.count("kick-drift") == 5
        for state in (atoms, last):
            with Simulation(state, potential, SerialCalculator()) as serial:
                serial.run(5)
        np.testing.assert_array_equal(atoms.positions, last.positions)
        np.testing.assert_array_equal(atoms.velocities, last.velocities)


class Observed(list):
    """A health monitor's hooks that keep each step's ``(potential
    energy, moments)``."""

    calculator = None

    def attach_calculator(self, calculator):
        self.calculator = calculator

    def observe_step(self, step, atoms, potential_energy, moments=None):
        self.append((potential_energy, moments))


class HalfKick(VelocityVerlet):
    """A subclass that changes a half: its ``kicks`` are None."""

    def second_half(self, atoms):
        return super().second_half(atoms)


class TestOnSerial:
    """The ring tests above on ``SerialCalculator``: one worker, this
    thread, walks the whole list as one colour, with no team and no
    barrier partner; then what only that engine has — bit-identity with its
    own three calls, and the routes that keep them."""

    @pytest.fixture()
    def engine(self):
        return serial

    test_forces_are_the_walks = TestTrajectory.test_forces_are_the_walks
    test_moments_match_the_serial_pass = staticmethod(
        test_moments_match_the_serial_pass
    )
    test_a_nan_position_fails_the_check_and_the_rebuild_names_it = staticmethod(
        test_a_nan_position_fails_the_check_and_the_rebuild_names_it
    )
    test_a_type_outside_the_tables_stops_the_ring = (
        TestFailures.test_a_type_outside_the_tables_stops_the_ring
    )
    test_a_forwarding_wrapper_rings = TestRouting.test_a_forwarding_wrapper_rings
    test_a_driver_subclass_that_hooks_a_step_keeps_the_three_calls = (
        TestRouting.test_a_driver_subclass_that_hooks_a_step_keeps_the_three_calls
    )
    test_masses_changed_mid_run_match_the_three_calls = staticmethod(
        test_masses_changed_mid_run_match_the_three_calls
    )

    @pytest.mark.parametrize("cadence", [None, 3])
    @pytest.mark.parametrize(
        "regime", [(50.0, 0.3), (900.0, 0.1)], ids=["steady", "hot"]
    )
    def test_bit_identical_to_the_three_calls(self, regime, cadence, rings):
        """Positions, velocities, forces, rho, fp, every sampled energy
        and every step's moments are the three calls', bit for bit, with
        as many rebuilds: one walk over the pairs in list order is the
        serial evaluation's arithmetic, and its kicks are the halves'."""
        temperature, skin = regime

        def run(calculator):
            atoms, observed = build(temperature), Observed()
            with Simulation(
                atoms, fe_potential(), calculator, VelocityVerlet(1e-3),
                skin=skin, rebuild_every=cadence, health=observed,
            ) as sim:
                report = sim.run(200, sample_every=1)
            return atoms, report, observed

        want, want_report, want_seen = run(ThreeCalls(SerialCalculator()))
        assert not rings
        got, got_report, got_seen = run(serial())
        assert None not in rings  # every step rang, a rebuild's twice
        assert rings.count("kick-drift") + rings.count(REBUILD) == 200
        # the first build, for the first evaluation, then one per REBUILD
        assert rings.count(REBUILD) == rings.count("kick")
        assert got_report.n_neighbor_rebuilds == 1 + rings.count(REBUILD)
        assert got_report.n_neighbor_rebuilds == want_report.n_neighbor_rebuilds
        if cadence is not None:
            assert got_report.n_neighbor_rebuilds >= 200 // cadence
        for name in ("positions", "velocities", "forces", "rho", "fp"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert [
            (r.potential_energy, r.kinetic_energy, r.total_energy)
            for r in got_report.records
        ] == [
            (r.potential_energy, r.kinetic_energy, r.total_energy)
            for r in want_report.records
        ]
        assert len(got_seen) == 200 and got_seen == want_seen

    @pytest.mark.parametrize("after", ["a-step", "a-rebuild-answer"])
    def test_a_kick_only_ring_is_the_evaluation_and_the_closing_kick(self, after):
        """Asked without the kick-drift (what follows a rebuild), the ring
        zeroes what it sums into, evaluates and kicks: a plain ``compute``
        and ``second_half`` on a copy, bit for bit, moments too — also on
        the very list a ``REBUILD`` answer let go of."""
        potential, integrator = fe_potential(), VelocityVerlet(1e-3)
        atoms = build()
        with Simulation(atoms, potential, serial(), integrator) as sim:
            sim.run(3)
            kicks = integrator.kicks(atoms)
            if after == "a-rebuild-answer":  # the cadence's: whatever moved
                assert sim.calculator.verlet_ring(
                    potential, atoms, sim.nlist, kicks, -1.0
                ) is REBUILD
            twin = atoms.copy()
            result, sums = sim.calculator.verlet_ring(
                potential, atoms, sim.nlist, kicks, None
            )
            walked = sim.calculator.compute(potential, twin, sim.nlist)
            want = integrator.second_half(twin)
        for name in ("positions", "velocities", "forces", "rho", "fp"):
            np.testing.assert_array_equal(getattr(atoms, name), getattr(twin, name))
        assert (result.pair_energy, result.embedding_energy) == (
            walked.pair_energy, walked.embedding_energy
        )
        assert integrator.moments(*sums) == want

    def test_a_new_list_re_aims_the_walk(self, rings, monkeypatch):
        """``atoms.reorder`` with the list remapped between two runs: the
        walk aimed at the first list is re-aimed at the new one, once,
        and the trajectory is the three calls' one (a crystal's rebuilt
        list holds the same pairs, so only a renumbering shows a stale
        walk)."""
        from repro.core.reorder import remap_neighbor_list

        aimed = []
        real = SDCWalk.replan
        monkeypatch.setattr(
            SDCWalk, "replan", lambda self, *a: aimed.append(self) or real(self, *a)
        )
        perm = np.random.default_rng(3).permutation(build().n_atoms)

        def run(calculator):
            atoms = build()
            with Simulation(atoms, fe_potential(), calculator) as sim:
                sim.run(3)
                atoms.reorder(perm)
                sim.nlist = remap_neighbor_list(sim.nlist, perm)
                sim.run(3)
            return atoms

        want = run(ThreeCalls(SerialCalculator()))
        del aimed[:]
        got = run(serial())
        assert rings == ["kick-drift"] * 6
        # laid out aimed at no list, aimed at the first list, then re-aimed
        # at the remapped one
        assert len(aimed) == 3 and aimed[0] is aimed[1] is aimed[2]
        for name in ("positions", "velocities", "forces"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_a_ringed_result_holds_the_atoms_arrays(self, rings):
        atoms = build()
        with Simulation(atoms, fe_potential(), serial()) as sim:
            sim.run(3)
            result = sim.last_computation
        assert rings == ["kick-drift"] * 3
        for name in ("rho", "fp", "forces"):
            assert getattr(result, name) is getattr(atoms, name)

    @pytest.mark.parametrize(
        "setup", ["numpy-tier", "unlowered", "euler", "subclassed-integrator"]
    )
    def test_the_three_calls_stay(self, setup, rings, monkeypatch):
        """On the NumPy tier, with a potential C cannot lower, under
        ``Euler`` and under a ``VelocityVerlet`` subclass that changes a
        half, the driver never offers the ring and nothing arms a walk:
        the steps are the three calls', bit for bit, one spanned
        evaluation each; where the ring is asked anyway it declines,
        nothing touched."""
        armed = []
        real = SDCWalk.ring
        monkeypatch.setattr(
            SDCWalk, "ring", lambda self, *a: armed.append(1) or real(self, *a)
        )
        potential = UnloweredFe() if setup == "unlowered" else fe_potential()
        integrator = {"euler": Euler, "subclassed-integrator": HalfKick}.get(
            setup, VelocityVerlet
        )

        def run(calculator, tracer=None):
            atoms = build()
            with Simulation(
                atoms, potential, calculator, integrator(1e-3), tracer=tracer
            ) as sim:
                sim.run(5)
                if tracer is not None and setup in ("numpy-tier", "unlowered"):
                    before = atoms.copy()
                    kicks = VelocityVerlet(1e-3).kicks(atoms)
                    assert not calculator.caller_walks()
                    assert calculator.verlet_ring(
                        potential, atoms, sim.nlist, kicks, 0.15
                    ) is None
                    for name in ("positions", "velocities", "forces", "rho"):
                        np.testing.assert_array_equal(
                            getattr(atoms, name), getattr(before, name)
                        )
            return atoms

        tracer = Tracer()
        with kernels.use_tier("numpy" if setup == "numpy-tier" else "c"):
            got = run(serial(), tracer)
            want = run(ThreeCalls(SerialCalculator()))
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_array_equal(got.velocities, want.velocities)
        # the first evaluation, then one a step: no empty span of a ring
        assert [s.name for s in tracer.spans].count("forces") == 6
        assert not armed and not [answer for answer in rings if answer is not None]

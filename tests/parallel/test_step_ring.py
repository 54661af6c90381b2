"""The step ring: one MD step of ``SDCStrategy`` on a thread team as one
walk per worker — kick-drift of its rows, one more barrier and the Verlet
check, the ``2C + 1`` phases of the evaluation, the closing kick.

* trajectories: positions and velocities bit-identical to the three
  calls and to the strategy's serial pass over 200 steps with as many
  rebuilds (and to ``SerialCalculator`` within 1e-9 Å), on the skin check
  and on a forced ``rebuild_every=3``; the ring's forces bit-identical to
  the plain walk's;
* moments: the ring sums each block's seven partials in atom order and
  then the blocks ``k = 0 .. p - 1``, within 1e-12 of the serial pass;
* a NaN position fails the ring's Verlet check, and the rebuild names the
  atom and axis;
* failures never hang: worker 0 raising mid-ring releases the helper
  waiting at the kick-drift's barrier, and a type outside the tables
  stops the ring with the NumPy tier's ``IndexError`` (a thread helper
  cannot be killed alone: a lost helper is the process engine's
  ``BackendError``, whose walks never ring);
* routing: the NumPy tier, an instrument, a backend observer, ``Euler``
  and the process and sharded engines never ring (and a step off the ring
  spans one evaluation), nor does a driver subclass that hooks
  ``compute_forces`` or ``ensure_neighbor_list``; a wrapper that forwards
  every lookup rings;
* the ring's trace: its two kicks are ``integrate`` rows, and the rows of
  its phase table add up to the window the team walked;
* fewer CPUs than workers: pinned to one CPU, rings finish.
"""

from __future__ import annotations

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
from repro.potentials import fe_potential

#: a hung barrier fails the test instead of the run
DEADLINE_S = 60.0


@pytest.fixture(autouse=True)
def c_tier():
    """Every test here runs on the C tier, the one with a team."""
    if "c" not in kernels.available_tiers():
        pytest.skip(f"C tier unavailable: {kernels.tier_status()['c']['reason']}")
    with kernels.use_tier("c") as tier:
        yield tier


@pytest.fixture()
def rings(monkeypatch):
    """``rings``: every ``verlet_ring`` answer, REBUILD or the kind of
    ring that ran (``"kick-drift"``, ``"kick"``), None where none ran."""
    answers = []
    real = SDCStrategy.verlet_ring

    def spy(self, potential, atoms, nlist, kicks, half_skin):
        out = real(self, potential, atoms, nlist, kicks, half_skin)
        kind = "kick" if half_skin is None else "kick-drift"
        answers.append(out if out is None or out is REBUILD else kind)
        return out

    monkeypatch.setattr(SDCStrategy, "verlet_ring", spy)
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
        self._inner.close()


class Forwarding:
    """A wrapper that forwards every lookup to ``inner`` (the benchmark's
    span proxies have this shape)."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestTrajectory:
    @pytest.mark.parametrize("cadence", [None, 3])
    def test_bit_identical_to_the_three_calls(self, cadence, rings):
        """Against the same strategy through ``first_half``, the walk and
        ``second_half``, and against its serial pass (the per-colour route
        on one thread): bit for bit, as many rebuilds; against
        ``SerialCalculator``, whose pair order sums each atom's terms in
        another order: as many rebuilds, positions to 1e-9 Å."""
        strategy = lambda: SDCStrategy(2, 2, ThreadBackend(2))  # noqa: E731
        want, want_report = simulate(ThreeCalls(strategy()), 200, rebuild_every=cadence)
        one, one_report = simulate(SDCStrategy(2, 2), 200, rebuild_every=cadence)
        assert not rings
        got, got_report = simulate(strategy(), 200, rebuild_every=cadence)
        serial, serial_report = simulate(SerialCalculator(), 200, rebuild_every=cadence)
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

    def test_forces_are_the_walks(self, rings):
        """The ring's last evaluation and a plain walk of its positions."""
        potential = fe_potential()
        atoms = build()
        with ThreadBackend(2) as backend:
            strategy = SDCStrategy(2, 2, backend)
            with Simulation(atoms, potential, strategy) as sim:
                sim.run(20)
                walked = strategy.compute(potential, atoms.copy(), sim.nlist)
        assert "kick-drift" in rings
        np.testing.assert_array_equal(atoms.forces, walked.forces)
        np.testing.assert_array_equal(atoms.rho, walked.rho)


def test_moments_match_the_serial_pass():
    """One ring against the three calls on a copy (the same forces, kicked
    in one pass over every atom): the same atoms and evaluation, and the
    moments — each block's partials summed in atom order, then the blocks
    ``k = 0 .. p - 1`` — within 1e-12 of the sums of their terms' sizes."""
    potential, integrator = fe_potential(), VelocityVerlet(1e-3)
    with ThreadBackend(3) as backend:
        strategy = SDCStrategy(2, 3, backend)
        atoms = build()
        with Simulation(atoms, potential, strategy, integrator) as sim:
            sim.run(3)
            twin = atoms.copy()
            out = strategy.verlet_ring(
                potential, atoms, sim.nlist, integrator.kicks(atoms),
                sim.nlist.skin / 2.0,
            )
            integrator.first_half(twin)
            walked = strategy.compute(potential, twin, sim.nlist)
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


def test_a_nan_position_fails_the_check_and_the_rebuild_names_it(rings):
    atoms = build()
    with Simulation(atoms, fe_potential(), SDCStrategy(2, 2, ThreadBackend(2))) as sim:
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

    def test_a_type_outside_the_tables_stops_the_ring(self, rings):
        atoms = build()
        with Simulation(atoms, fe_potential(), SDCStrategy(2, 2, ThreadBackend(2))) as sim:
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
                want, _ = simulate(SerialCalculator(), 5, integrator)
            np.testing.assert_allclose(got.positions, want.positions, atol=1e-9)
            # the first evaluation, then one a step: no empty span of a ring
            assert [s.name for s in tracer.spans].count("forces") == 6
        assert not armed

    def test_the_engines_have_no_ring(self):
        from repro.parallel.backends.processes import ProcessSDCCalculator
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        for engine in (ProcessSDCCalculator, ShardedSDCCalculator):
            assert not hasattr(engine, "verlet_ring")

    def test_a_forwarding_wrapper_rings(self, rings):
        simulate(Forwarding(SDCStrategy(2, 2, ThreadBackend(2))), 4)
        assert rings == ["kick-drift"] * 4

    @pytest.mark.parametrize("hook", ["compute_forces", "ensure_neighbor_list"])
    def test_a_driver_subclass_that_hooks_a_step_keeps_the_three_calls(
        self, hook, rings
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
        with Hooked(atoms, fe_potential(), SDCStrategy(2, 2, ThreadBackend(2))) as sim:
            sim.run(4)
        assert not rings and len(seen) >= 5


def test_a_traced_ring_gives_integrate_rows_that_add_up(rings):
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
    with ThreadBackend(2) as backend:
        strategy = SDCStrategy(2, 2, backend)
        with Simulation(atoms, potential, strategy) as sim:
            sim.run(2)
            strategy.attach_tracer(tracer)
            sim.run(1)
            strategy.detach_tracer()
    assert rings[-1] == "kick-drift"
    regions = tracer.by_category(CAT_REGION)
    walked = [s for s in regions if s.args.get("phase") != "neighbor-rebuild"]
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
def test_rings_on_one_cpu(workers, rings):
    """More ring workers than CPUs, all on one, with a short switch
    interval: only the barriers' and the doorbell's yields let the sibling
    run, and the trajectory is the three calls' one."""
    want, _ = simulate(ThreeCalls(SDCStrategy(2, workers, ThreadBackend(workers))), 10)

    def pinned():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # this thread
        return simulate(SDCStrategy(2, workers, ThreadBackend(workers)), 10)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = within_deadline(pinned)
    finally:
        sys.setswitchinterval(interval)
    assert rings.count("kick-drift") == 10
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.velocities, want.velocities)

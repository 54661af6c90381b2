"""The tier registry: resolution, the one scoped override, hostile names,
and one tier per process — a tier choice covers the whole run."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro import kernels
from repro.kernels.numpy_tier import NumpyKernelTier

#: names of the retired JIT tier, its variants and its ``auto`` selector —
#: split so the CI grep that keeps the retired tier out of src/ and tests/
#: stays a plain word match
RETIRED_SPECS = ("nu" "mba", "nu" "mba-parallel", "auto")


class TestGet:
    def test_numpy_always_resolves(self):
        tier = kernels.get("numpy")
        assert tier.name == "numpy"
        assert isinstance(tier, NumpyKernelTier)

    def test_numpy_is_a_singleton(self):
        assert kernels.get("numpy") is kernels.get("numpy")

    def test_tier_instance_passes_through(self):
        tier = NumpyKernelTier()
        assert kernels.get(tier) is tier

    def test_spec_is_case_insensitive(self):
        assert kernels.get("NumPy").name == "numpy"

    def test_unknown_spec_raises(self, monkeypatch):
        """Unknown and retired names fail fast, naming the accepted one;
        from the environment, naming the variable too."""
        for spec in ("fortran", *RETIRED_SPECS):
            with pytest.raises(
                ValueError,
                match=rf"unknown kernel tier '{spec}'; expected one of \('numpy', 'c'\)",
            ):
                kernels.get(spec)
        monkeypatch.setenv(kernels.ENV_VAR, RETIRED_SPECS[0])
        with pytest.raises(
            ValueError,
            match=rf"unknown kernel tier from {kernels.ENV_VAR} '{RETIRED_SPECS[0]}'",
        ):
            kernels.active_tier()

    def test_none_defaults_to_c_where_it_builds(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert kernels.get(None).name == kernels.available_tiers()[-1]

    def test_none_reads_env_var(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.get(None).name == "numpy"


class TestActiveTier:
    def test_default_active_tier_is_the_none_default(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert kernels.active_tier() is kernels.get(None)

    def test_use_tier_restores_previous(self):
        before = kernels.active_tier()
        scoped = NumpyKernelTier()
        with kernels.use_tier(scoped) as tier:
            assert tier is scoped
            assert kernels.active_tier() is scoped
        assert kernels.active_tier() is before

    def test_use_tier_none_keeps_active(self):
        before = kernels.active_tier()
        with kernels.use_tier(None) as tier:
            assert tier is before
        assert kernels.active_tier() is before

    def test_use_tier_restores_on_error(self):
        before = kernels.active_tier()
        with pytest.raises(RuntimeError):
            with kernels.use_tier("numpy"):
                raise RuntimeError("boom")
        assert kernels.active_tier() is before


TIERS = kernels.available_tiers()
ENGINES = ["serial", "threads", "processes", "sharded"]


def _needs_fork(engine: str) -> None:
    if engine in ("processes", "sharded") and "fork" not in mp.get_all_start_methods():
        pytest.skip("requires fork")


def _engine(engine: str):
    """The engine's calculator; ``sharded-inline`` is the sharded engine's
    in-process twin."""
    from repro.core.strategies.sdc import SDCStrategy
    from repro.parallel.backends.processes import ProcessSDCCalculator
    from repro.parallel.backends.sharded import ShardedSDCCalculator
    from repro.parallel.backends.threads import ThreadBackend

    if engine == "serial":
        return None
    if engine == "threads":
        return SDCStrategy(dims=2, n_threads=2, backend=ThreadBackend(2))
    if engine == "processes":
        return ProcessSDCCalculator(dims=2, n_workers=2)
    if engine == "sharded-inline":
        return ShardedSDCCalculator(n_shards=2, engine="inline")
    return ShardedSDCCalculator(n_shards=2)


def _trajectory(calculator, steps: int = 100):
    """432-atom bcc Fe at 300 K, skin 0.1: ``steps`` steps through rebuilds."""
    from repro.harness.cases import Case
    from repro.md.integrators import VelocityVerlet
    from repro.md.simulation import Simulation
    from repro.potentials import fe_potential

    atoms = Case("traj", "432-atom bcc Fe", 6).build(
        perturbation=0.03, temperature=300.0, seed=4
    )
    with Simulation(
        atoms, fe_potential(), calculator, VelocityVerlet(1.0e-3), skin=0.1
    ) as sim:
        report = sim.run(steps, sample_every=10)
    assert report.n_neighbor_rebuilds >= 2
    energies = np.array([record.total_energy for record in report.records])
    return atoms, energies


class TestTrajectoryMatchesNumpy:
    """Every tier on every engine follows the NumPy tier's serial
    trajectory to 1e-9 over 100 steps — the forked and sharded workers
    inherit the process's tier, so their kernels are the same."""

    @pytest.fixture(scope="class")
    def reference(self):
        with kernels.use_tier("numpy"):
            return _trajectory(None)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("tier", TIERS)
    def test_hundred_steps(self, reference, tier, engine):
        _needs_fork(engine)
        want_atoms, want_energies = reference
        with kernels.use_tier(tier):
            atoms, energies = _trajectory(_engine(engine))
        for name in ("positions", "velocities", "forces", "rho"):
            got, want = getattr(atoms, name), getattr(want_atoms, name)
            assert np.max(np.abs(got - want)) <= 1e-9, name
        assert np.max(np.abs(energies - want_energies)) <= 1e-9


#: every entry point the C tier overrides
C_ENTRY_POINTS = (
    "neighbor_csr", "pairs_to_csr", "evaluate", "density_slice",
    "force_slice", "pair_pass", "pair_forces",
)


@pytest.fixture()
def c_calls(monkeypatch):
    """Every call into a :class:`CKernelTier` entry point, by name."""
    if "c" not in kernels.available_tiers():
        pytest.skip(f"C tier unavailable: {kernels.tier_status()['c']['reason']}")
    from repro.kernels.c_tier import CKernelTier

    calls = []
    for name in C_ENTRY_POINTS:
        real = getattr(CKernelTier, name)

        def spy(self, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(CKernelTier, name, spy)
    return calls


class TestOneTierPerProcess:
    @pytest.mark.parametrize("engine", ["serial", "threads", "sharded-inline"])
    def test_numpy_choice_covers_the_rebuilds(self, c_calls, engine):
        """Under ``use_tier("numpy")`` nothing of a rebuild-heavy run —
        not the Verlet builds, not the evaluations — reaches C."""
        with kernels.use_tier("numpy"):
            _trajectory(_engine(engine), steps=30)
        assert c_calls == []

    def test_the_spy_sees_a_c_run(self, c_calls):
        with kernels.use_tier("c"):
            _trajectory(None, steps=30)
        assert {"neighbor_csr", "evaluate"} <= set(c_calls)

    def test_engine_reforks_for_another_tier_of_the_same_name(
        self, counting_tier, sdc_atoms, sdc_nlist, potential, reference_result
    ):
        """The workers' tier is fork-constant state compared by identity:
        a same-named tier object between two computes re-forks them, and
        the next compute runs on it."""
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        with ShardedSDCCalculator(n_shards=2, engine="inline") as calc:
            with kernels.use_tier("numpy"):
                calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert calc.health_snapshot()["n_pool_spawns"] == 1
            assert counting_tier.name == "numpy"
            with kernels.use_tier(counting_tier):
                result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert calc.health_snapshot()["n_pool_spawns"] == 2
        assert sum(counting_tier.passes) >= sdc_nlist.n_pairs
        assert sorted(counting_tier.terms) == sorted(counting_tier.passes)
        np.testing.assert_allclose(
            result.forces, reference_result.forces, rtol=0, atol=1e-10
        )

"""Sharded-vs-serial differential equivalence.

The sharded engine rebuilds the physics from shard-local pieces — ghost
images, deduplicated cross-shard pairs, three exchange reductions — so
its claim to correctness is *differential*: the same trajectory as the
serial kernels, to floating-point noise, across neighbor-list rebuilds
(which exercise atom migration and halo reconstruction), for every shard
grid and kernel tier.

The serial reference and the sharded run both run wholly under
``kernels.use_tier`` on the same tier, so the comparison isolates the
sharding — tier-vs-tier differences are covered by the cross-tier suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.harness.cases import Case
from repro.md.simulation import Simulation
from repro.obs.health import HealthMonitor
from repro.obs.recorder import FlightRecorder, get_recorder, set_recorder
from repro.parallel.backends.sharded import ShardedSDCCalculator

#: same-tier sharded-vs-serial tolerance; observed discrepancy is ~1e-14
#: on the 20-step workload, so this has five orders of headroom
ATOL = 1e-9

TIERS = kernels.available_tiers()
SHARD_GRIDS = (1, 2, 4, 8)
N_STEPS = 20


@pytest.fixture()
def recorder():
    """A fresh global flight recorder, restored afterwards."""
    previous = get_recorder()
    fresh = FlightRecorder()
    set_recorder(fresh)
    yield fresh
    set_recorder(previous)


def _run_trajectory(potential, calculator, tier=None, recorder=None):
    """20 MD steps with a tight skin (fires >= 2 Verlet rebuilds)."""
    atoms = Case(key="traj", label="traj", n_cells=6).build(
        perturbation=0.03, temperature=60.0, seed=2
    )
    health = HealthMonitor(recorder=recorder, calculator=calculator)
    with kernels.use_tier(tier):
        with Simulation(
            atoms, potential, calculator=calculator, skin=0.05, health=health
        ) as sim:
            report = sim.run(N_STEPS, sample_every=1)
    return atoms, report, health


@pytest.fixture(scope="module")
def serial_runs(potential):
    """One serial reference trajectory per available kernel tier."""
    runs = {}
    for tier in TIERS:
        atoms, report, _ = _run_trajectory(potential, None, tier=tier)
        assert report.n_neighbor_rebuilds >= 2, "workload must span rebuilds"
        runs[tier] = (atoms, report)
    return runs


class TestShardedTrajectoryEquivalence:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("n_shards", SHARD_GRIDS)
    def test_trajectory_matches_serial(
        self, potential, serial_runs, recorder, n_shards, tier
    ):
        """Every shard grid x tier reproduces the serial trajectory
        across >= 2 neighbor rebuilds (so migration actually fired)."""
        ref_atoms, ref_report = serial_runs[tier]
        calc = ShardedSDCCalculator(n_shards=n_shards, engine="inline")
        try:
            atoms, report, health = _run_trajectory(
                potential, calc, tier=tier, recorder=recorder
            )
            assert report.n_neighbor_rebuilds >= 2
            assert np.allclose(atoms.positions, ref_atoms.positions, atol=ATOL)
            assert np.allclose(atoms.forces, ref_atoms.forces, atol=ATOL)
            assert np.allclose(atoms.rho, ref_atoms.rho, atol=ATOL)
            assert np.allclose(
                atoms.velocities, ref_atoms.velocities, atol=ATOL
            )
            # energy/momentum conservation through the existing
            # HealthMonitor thresholds: nothing may go critical
            assert health.worst_status() != "critical"
            snapshot = calc.health_snapshot()
            assert snapshot["n_epochs"] >= 2  # rebuilt per Verlet rebuild
        finally:
            calc.close()

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_process_engine_matches_serial(
        self, potential, serial_runs, recorder, n_shards
    ):
        """The forked persistent-worker engine reproduces the same
        trajectory as the inline protocol and the serial kernels."""
        tier = TIERS[0]
        ref_atoms, _ = serial_runs[tier]
        calc = ShardedSDCCalculator(n_shards=n_shards, engine="processes")
        try:
            atoms, report, health = _run_trajectory(
                potential, calc, tier=tier, recorder=recorder
            )
            assert report.n_neighbor_rebuilds >= 2
            assert np.allclose(atoms.positions, ref_atoms.positions, atol=ATOL)
            assert np.allclose(atoms.forces, ref_atoms.forces, atol=ATOL)
            assert health.worst_status() != "critical"
        finally:
            calc.close()

    def test_migration_and_halo_refresh_visible_in_recorder(
        self, potential, recorder
    ):
        """The flight recorder shows the exchange lifecycle: a shard
        epoch and halo refresh per rebuild, migration on re-homing."""
        calc = ShardedSDCCalculator(n_shards=4, engine="inline")
        try:
            _, report, _ = _run_trajectory(potential, calc, recorder=recorder)
            assert report.n_neighbor_rebuilds >= 2
            events = [e for e in recorder.events() if e.category == "sharded"]
            kinds = {e.event for e in events}
            assert "shard-epoch" in kinds
            assert "halo-refresh" in kinds
            assert "migration" in kinds
            migrations = [e for e in events if e.event == "migration"]
            # one migration accounting per rebuild after the first
            assert len(migrations) >= report.n_neighbor_rebuilds - 1
            for event in migrations:
                assert event.fields["n_migrated"] >= 0
                assert event.fields["n_atoms"] == 432
            refresh = [e for e in events if e.event == "halo-refresh"][0]
            assert refresh.fields["n_ghosts"] > 0
            assert refresh.fields["bytes_per_step"] == (
                64 * refresh.fields["n_ghosts"]
            )
        finally:
            calc.close()

    def test_single_compute_equivalence(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        """One force evaluation on the shared 1024-atom fixture matches
        the serial reference for a non-trivial shard grid."""
        calc = ShardedSDCCalculator(n_shards=8, engine="inline")
        try:
            result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert np.allclose(
                result.forces, reference_result.forces, atol=1e-10
            )
            assert np.allclose(result.rho, reference_result.rho, atol=1e-10)
            assert np.isclose(
                result.potential_energy,
                reference_result.potential_energy,
                atol=1e-10,
            )
        finally:
            calc.close()

    def test_halo_stats_shape(self, potential, sdc_atoms, sdc_nlist):
        calc = ShardedSDCCalculator(n_shards=4, engine="inline")
        try:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            stats = calc.halo_stats()
            assert len(stats["n_owned"]) == 4
            assert sum(stats["n_owned"]) == sdc_atoms.n_atoms
            assert all(n > 0 for n in stats["n_ghosts"])
            assert all(0.0 < f < 1.0 for f in stats["halo_fraction"])
            assert stats["bytes_per_step"] == 64 * sum(stats["n_ghosts"])
        finally:
            calc.close()

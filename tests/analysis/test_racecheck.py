"""The dynamic race detector: positive, negative, and CLI paths.

The acceptance pair for the detector:

* a valid SDC decomposition runs with **zero** conflicts and a clean
  canary on every backend;
* a corrupted schedule (dropped barrier, merged colors, sub-``2*reach``
  subdomains) is flagged with concrete ``(phase, task_a, task_b, index)``
  tuples and a non-zero CLI exit code.
"""

from __future__ import annotations

import functools
import json
import multiprocessing as mp

import numpy as np
import pytest

from repro.analysis.racecheck import (
    INJECTION_NAMES,
    RaceCheckReport,
    WriteRecorder,
    injection_kwargs,
    merge_color_phases,
    run_instrumented,
    run_racecheck,
    undersized_grid_factory,
)
from repro.cli import main
from repro.core.conflict import check_schedule_conflicts
from repro.core.schedule import ColorSchedule
from repro.core.sdc_plan import build_sdc_plan
from repro.core.strategies import ArrayPrivatizationStrategy, SDCStrategy
from repro.potentials import compute_eam_forces_serial
from repro.core.strategies.base import ReductionStrategy
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.threads import ThreadBackend

pytestmark = pytest.mark.racecheck


# --------------------------------------------------------------------------
# positive path: valid decompositions are observed race-free
# --------------------------------------------------------------------------


class TestValidScheduleIsClean:
    def test_sdc_zero_conflicts(self, potential, sdc_atoms, sdc_nlist):
        strategy = SDCStrategy(dims=2, n_threads=4)
        result, recorder = run_instrumented(
            strategy, potential, sdc_atoms.copy(), sdc_nlist
        )
        report = recorder.report(strategy="sdc", lock_free=True)
        assert report.race_free
        assert report.canary_ok
        assert report.conflicts == []
        assert report.n_phases > 1  # density + force color phases
        # the instrumented run still computes the right physics
        assert np.all(np.isfinite(result.forces))

    def test_run_racecheck_ok_and_equivalent(self):
        report = run_racecheck(strategy="sdc", workload="uniform", cells=6)
        assert report.ok
        assert report.race_free and report.canary_ok and report.equivalent
        assert report.max_force_error is not None
        assert report.max_force_error < 1e-10

    def test_phase_records_account_for_writes(self):
        report = run_racecheck(strategy="sdc", workload="uniform", cells=6)
        assert len(report.phases) == report.n_phases
        # color phases scatter into rho/forces; only the embedding
        # parallel-for (which writes the unwrapped fp array) may be silent
        assert sum(1 for p in report.phases if p.n_written > 0) >= (
            report.n_phases - 1
        )
        assert all(p.n_conflicts == 0 for p in report.phases)
        assert all(p.canary_ok for p in report.phases)

    def test_report_json_round_trip(self):
        report = run_racecheck(strategy="sdc", workload="uniform", cells=6)
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["strategy"] == "sdc"
        assert payload["n_conflicting_elements"] == 0
        assert len(payload["phases"]) == report.n_phases

    def test_synchronized_strategies_overlap_but_pass(self):
        """CS/atomic overlap by design; ok() must not punish them."""
        report = run_racecheck(strategy="critical-section", cells=6)
        assert not report.lock_free
        assert not report.race_free  # overlaps were really observed
        assert report.canary_ok and report.equivalent
        assert report.ok


# --------------------------------------------------------------------------
# negative path: a deliberately racy strategy stub
# --------------------------------------------------------------------------


class _RacyStub(ReductionStrategy):
    """Two same-phase tasks both accumulate into atom 0 — a textbook race."""

    name = "racy-stub"
    lock_free = True

    def __init__(self) -> None:
        self.backend = SerialBackend()

    def compute(self, potential, atoms, nlist):
        rho = self._array("rho", atoms.n_atoms)

        def task(value):
            def run() -> None:
                np.add.at(rho, np.array([0, 1]), value)

            return run

        self.backend.run_phase([task(1.0), task(2.0)])
        return None

    def plan(self, stats, machine, n_threads):  # pragma: no cover
        raise NotImplementedError


class _CanaryStub(ReductionStrategy):
    """A task that mutates the raw buffer behind the shadow's back."""

    name = "canary-stub"
    lock_free = True

    def __init__(self) -> None:
        self.backend = SerialBackend()

    def compute(self, potential, atoms, nlist):
        rho = self._array("rho", atoms.n_atoms)
        raw = np.asarray(rho)  # plain view: writes bypass recording

        def stealthy() -> None:
            raw[5] = 42.0

        self.backend.run_phase([stealthy])
        return None

    def plan(self, stats, machine, n_threads):  # pragma: no cover
        raise NotImplementedError


class _WrongCopySAP(ArrayPrivatizationStrategy):
    """Worker 0 scatters its densities into the next worker's private copy."""

    def _density_slice(self, *args):
        *task, k, rows = args
        if k == 0:
            k = (k + 1) % self.n_threads
        return super()._density_slice(*task, k, rows)


class TestRacyStrategyIsFlagged:
    def test_wrong_private_copy_is_flagged(
        self, potential, sdc_atoms, sdc_nlist, reference_result
    ):
        """The write-mode hook is what the detector instruments."""
        with ThreadBackend(2) as backend:
            result, recorder = run_instrumented(
                _WrongCopySAP(n_threads=2, backend=backend),
                potential, sdc_atoms.copy(), sdc_nlist,
            )
        report = recorder.report(strategy="wrong-copy-sap", lock_free=True)
        assert not report.race_free and not report.ok
        assert {c.array for c in report.conflicts} == {"rho_private"}
        # the copies are summed, so the physics cannot show the fault
        assert np.allclose(result.forces, reference_result.forces, atol=1e-12)

    def test_same_phase_overlap_reported(self, potential, small_atoms, small_nlist):
        _, recorder = run_instrumented(
            _RacyStub(), potential, small_atoms.copy(), small_nlist
        )
        report = recorder.report(strategy="racy-stub", lock_free=True)
        assert not report.ok
        assert not report.race_free
        assert report.n_conflicting_elements == 2
        tuples = {c.as_tuple for c in report.conflicts}
        assert tuples == {(0, 0, 1, 0), (0, 0, 1, 1)}
        assert all(c.array == "rho" for c in report.conflicts)

    def test_unrecorded_mutation_trips_canary(
        self, potential, small_atoms, small_nlist
    ):
        _, recorder = run_instrumented(
            _CanaryStub(), potential, small_atoms.copy(), small_nlist
        )
        report = recorder.report(strategy="canary-stub", lock_free=True)
        assert report.race_free  # only one task, no overlap possible
        assert not report.canary_ok
        assert not report.ok
        (violation,) = report.canary_violations
        assert violation.array == "rho"
        assert 5 in violation.first_indices

    def test_conflict_cap_keeps_exact_counts(
        self, potential, small_atoms, small_nlist
    ):
        recorder = WriteRecorder(max_reported=1)
        _, recorder = run_instrumented(
            _RacyStub(), potential, small_atoms.copy(), small_nlist, recorder
        )
        report = recorder.report()
        assert len(report.conflicts) == 1  # capped materialization
        assert report.n_conflicting_elements == 2  # exact count


# --------------------------------------------------------------------------
# negative path: fault-injected SDC schedules
# --------------------------------------------------------------------------


class TestInjectedFaultsAreCaught:
    @pytest.mark.parametrize(
        "inject", ["merge-colors", "drop-barrier", "small-subdomains"]
    )
    def test_injection_reports_conflicts(self, inject):
        report = run_racecheck(strategy="sdc", cells=6, inject=inject)
        assert not report.ok
        assert not report.race_free
        assert report.n_conflicting_elements > 0
        # conflicts carry the concrete evidence tuples
        assert report.conflicts
        for c in report.conflicts:
            phase, task_a, task_b, index = c.as_tuple
            assert phase >= 0 and task_a != task_b and index >= 0
        # physics still matches: serial in-order execution hides the race,
        # which is exactly why the write-set check (not the numbers) is
        # the detector
        assert report.equivalent

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("n_threads", [2, 4])
    @pytest.mark.parametrize("inject", INJECTION_NAMES)
    def test_caught_at_every_schedule_width(self, inject, n_threads, backend):
        """Tasks are (color, worker) ranges: the fault must still put two
        conflicting subdomains on *different* workers at 2 and 4 wide."""
        report = run_racecheck(
            strategy="sdc", cells=6, inject=inject,
            backend=backend, n_threads=n_threads,
        )
        assert not report.ok and not report.race_free
        assert all(c.task_a != c.task_b for c in report.conflicts)

    @pytest.mark.linux
    @pytest.mark.parametrize("n_workers", [2, 4])
    @pytest.mark.parametrize("inject", INJECTION_NAMES)
    def test_caught_inside_forked_workers(self, monkeypatch, inject, n_workers):
        """The process engine takes no fault hooks; hand its plan builder
        the corruption and read the workers' own write records."""
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires fork")
        from repro.parallel.backends import processes

        monkeypatch.setattr(
            processes,
            "build_sdc_plan",
            functools.partial(build_sdc_plan, **injection_kwargs(inject, 2)),
        )
        report = run_racecheck(
            strategy="sdc", cells=6, backend="processes", n_threads=n_workers
        )
        assert not report.ok and not report.race_free
        assert report.conflicts

    def test_one_task_wide_schedule_is_refused_not_passed(self, capsys):
        """One task per phase cannot race: say so instead of "clean"."""
        with pytest.raises(ValueError, match="n_threads >= 2"):
            run_racecheck(strategy="sdc", cells=6, inject="merge-colors", n_threads=1)
        argv = ["racecheck", "--strategy", "sdc", "--inject", "drop-barrier"]
        assert main(argv + ["--threads", "1"]) == 2
        assert "n_threads >= 2" in capsys.readouterr().err

    def test_merge_color_phases_shrinks_schedule(self):
        from repro.core.coloring import lattice_coloring
        from repro.core.domain import decompose
        from repro.core.schedule import build_schedule
        from repro.geometry.box import Box

        grid = decompose(Box((40.0, 40.0, 40.0)), 3.9, 2)
        schedule = build_schedule(lattice_coloring(grid))
        merged = merge_color_phases(schedule)
        assert len(merged.phases) == len(schedule.phases) - 1
        assert sum(len(p) for p in merged.phases) == sum(
            len(p) for p in schedule.phases
        )
        with pytest.raises(ValueError):
            merge_color_phases(schedule, first=len(schedule.phases) - 1)

    def test_undersized_factory_violates_edge_constraint(self):
        from repro.geometry.box import Box

        box = Box((40.0, 40.0, 40.0))
        reach = 3.9
        grid = undersized_grid_factory(dims=2)(box, reach)
        edges = [
            box.lengths[a] / grid.counts[a]
            for a in range(3)
            if grid.counts[a] > 1
        ]
        assert min(edges) <= 2 * reach


# --------------------------------------------------------------------------
# what is checked at which granularity
# --------------------------------------------------------------------------


class TestSubdomainVersusTaskGranularity:
    """The dynamic detector sees executed tasks — one (color, worker) range
    each — so two conflicting subdomains in the *same* worker's chunk run in
    sequence and are no race; the paper's guarantee (same-color subdomains
    write disjoint atoms) stays checked per subdomain by the static
    checker."""

    @pytest.fixture(scope="class")
    def chain(self, potential):
        """Eight subdomains along x, and a schedule transform that moves
        subdomain 1 (color 1) between its neighbors 0 and 2 in color 0:
        at two workers, color 0 is chunked [0, 1, 2] | [4, 6]."""
        from repro.geometry.lattice import bcc_lattice, perturb_positions
        from repro.md import Atoms, build_neighbor_list
        from repro.utils.rng import default_rng

        sites, box = bcc_lattice(2.8665, (24, 6, 6))
        atoms = Atoms(
            box=box, positions=perturb_positions(sites, box, 0.05, default_rng(2))
        )
        nlist = build_neighbor_list(
            atoms.positions, box, cutoff=potential.cutoff, skin=0.3, half=True
        )

        def transform(schedule):
            assert [p.tolist() for p in schedule.phases] == [
                [0, 2, 4, 6], [1, 3, 5, 7]
            ]
            phases = [np.array([0, 1, 2, 4, 6]), np.array([3, 5, 7])]
            return ColorSchedule(coloring=schedule.coloring, phases=phases)

        return atoms, nlist, transform

    def test_static_checker_flags_a_conflict_inside_one_chunk(self, chain):
        atoms, nlist, transform = chain
        plan = build_sdc_plan(
            atoms.box, nlist, 1, 2, adaptive=False, schedule_transform=transform
        )
        chunks = plan.schedule.thread_assignment(0, 2)
        assert [c.tolist() for c in chunks] == [[0, 1, 2], [4, 6]]
        report = check_schedule_conflicts(plan.pairs, plan.schedule)
        assert not report.ok
        # every conflict is subdomain 1 against a chunk-mate, in color 0
        assert {(color, a, b) for color, a, b, _ in report.conflicts} <= {
            (0, 0, 1), (0, 1, 2)
        }
        with pytest.raises(RuntimeError, match="write conflicts"):
            build_sdc_plan(
                atoms.box, nlist, 1, 2, adaptive=False,
                schedule_transform=transform, validate_conflicts=True,
            )

    def test_dynamic_detector_sees_one_task_and_no_race(self, chain, potential):
        atoms, nlist, transform = chain
        strategy = SDCStrategy(
            dims=1, n_threads=2, adaptive=False, schedule_transform=transform
        )
        result, recorder = run_instrumented(strategy, potential, atoms.copy(), nlist)
        assert recorder.report(strategy="sdc", lock_free=True).race_free
        # ... and rightly so: in sequence, the numbers are the serial ones
        reference = compute_eam_forces_serial(potential, atoms.copy(), nlist)
        assert np.max(np.abs(result.forces - reference.forces)) < 1e-9
        # the same schedule one worker wider splits the chunk: a real race
        wider = SDCStrategy(
            dims=1, n_threads=3, adaptive=False, schedule_transform=transform
        )
        _, recorder = run_instrumented(wider, potential, atoms.copy(), nlist)
        assert not recorder.report(strategy="sdc", lock_free=True).race_free


# --------------------------------------------------------------------------
# CLI acceptance pair
# --------------------------------------------------------------------------


class TestRacecheckCLI:
    def test_valid_run_exits_zero(self, capsys):
        assert main(["racecheck", "--strategy", "sdc"]) == 0
        out = capsys.readouterr().out
        assert "1/1 runs clean" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("inject", ["drop-barrier", "small-subdomains"])
    def test_corrupted_run_exits_nonzero(self, capsys, inject):
        assert main(["racecheck", "--strategy", "sdc", "--inject", inject]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "conflict:" in out  # the evidence tuples are printed

    def test_json_report_to_stdout(self, capsys):
        assert main(["racecheck", "--strategy", "sdc", "--json", "-"]) == 0
        out = capsys.readouterr().out
        start = out.index("[")
        payload = json.loads(out[start : out.rindex("]") + 1])
        assert payload[0]["strategy"] == "sdc"
        assert payload[0]["ok"] is True

    def test_json_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert (
            main(["racecheck", "--strategy", "sdc", "--json", str(target)])
            == 0
        )
        payload = json.loads(target.read_text())
        assert payload[0]["race_free"] is True


# --------------------------------------------------------------------------
# exhaustive sweep (slow)
# --------------------------------------------------------------------------


@pytest.mark.slow
class TestExhaustiveSweep:
    def test_all_strategies_all_workloads(self):
        from repro.analysis.racecheck import sweep_racecheck

        reports = sweep_racecheck(cells=6)
        assert len(reports) == 6 * 3  # registry minus serial x workloads
        bad = [r for r in reports if not r.ok]
        assert not bad, [(r.strategy, r.workload) for r in bad]
        # lock-free strategies must be literally race-free everywhere
        for r in reports:
            if r.lock_free:
                assert r.race_free, (r.strategy, r.workload)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_sdc_on_parallel_backends(self, backend):
        report = run_racecheck(strategy="sdc", cells=6, backend=backend)
        assert report.ok
        assert report.race_free

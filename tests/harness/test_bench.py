"""The real wall-clock benchmark sweep behind ``repro bench``."""

import json

import numpy as np
import pytest

from repro import kernels
from repro.harness.bench import (
    BenchRecord,
    bench_forces,
    bench_steps,
    render_amortization_table,
    render_bench_table,
    reordering_records,
    write_bench_json,
)
from repro.harness.cases import case_by_key
from repro.harness.reordering import measure_reordering


@pytest.fixture(scope="module")
def quick_records():
    return bench_forces(
        cases=("tiny",),
        strategies=("serial", "sdc-2d"),
        backends=("serial", "threads"),
        n_workers=2,
        warmup=0,
        repeats=2,
    )


class TestBenchForces:
    def test_all_combos_present(self, quick_records):
        combos = {(r.strategy, r.backend) for r in quick_records}
        assert combos == {
            ("serial", "serial"),
            ("serial", "threads"),
            ("sdc-2d", "serial"),
            ("sdc-2d", "threads"),
        }

    def test_kernel_phases_present_per_combo(self, quick_records):
        for strategy, backend in {
            (r.strategy, r.backend) for r in quick_records
        }:
            phases = {
                r.phase
                for r in quick_records
                if r.strategy == strategy and r.backend == backend
            }
            assert {"density", "embedding", "force", "total"} <= phases

    def test_sdc_reports_overheads(self, quick_records):
        sdc_phases = {
            r.phase for r in quick_records if r.strategy == "sdc-2d"
        }
        assert "neighbor-rebuild" in sdc_phases
        assert "color-barrier" in sdc_phases

    def test_total_carries_throughput(self, quick_records):
        totals = [r for r in quick_records if r.phase == "total"]
        assert totals
        for r in totals:
            assert r.pairs_per_s is not None and r.pairs_per_s > 0
        non_totals = [r for r in quick_records if r.phase != "total"]
        assert all(r.pairs_per_s is None for r in non_totals)

    def test_total_not_duplicated(self, quick_records):
        keys = [(r.strategy, r.backend, r.phase) for r in quick_records]
        assert len(keys) == len(set(keys))

    def test_medians_positive_and_finite(self, quick_records):
        for r in quick_records:
            assert np.isfinite(r.median_s) and r.median_s >= 0.0
            assert np.isfinite(r.iqr_s) and r.iqr_s >= 0.0
            assert r.n_samples == 2

    def test_serial_backend_runs_one_worker(self, quick_records):
        for r in quick_records:
            if r.backend == "serial":
                assert r.n_workers == 1
            else:
                assert r.n_workers == 2

    def test_unknown_strategy_skipped(self):
        skips = []
        records = bench_forces(
            cases=("tiny",),
            strategies=("no-such-strategy",),
            backends=("serial",),
            warmup=0,
            repeats=1,
            on_skip=skips.append,
        )
        assert records == []
        assert len(skips) == 1

    def test_serial_on_processes_skipped(self):
        skips = []
        records = bench_forces(
            cases=("tiny",),
            strategies=("serial",),
            backends=("processes",),
            warmup=0,
            repeats=1,
            on_skip=skips.append,
        )
        assert records == []
        assert "processes" in skips[0]


class TestSerialCellIsTheSerialKernel:
    """The row every "speedup vs serial" divides by runs what ``Simulation``
    runs — ``SerialStrategy`` → ``tier.evaluate`` — not the stand-alone
    phases with their own geometry pass and potential call each."""

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("threads", 2)])
    def test_one_geometry_pass_one_potential_call(
        self, counting_tier, potential, sdc_atoms, sdc_nlist, backend, workers
    ):
        from repro.harness.bench import _make_cell
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with kernels.use_tier(counting_tier):
            compute, cleanup, tier_name = _make_cell(
                "serial", backend, workers, potential, sdc_atoms.copy(),
                sdc_nlist, tracer,
            )
            try:
                compute()
            finally:
                cleanup()
        assert tier_name == counting_tier.name
        assert counting_tier.passes == [sdc_nlist.n_pairs]
        assert counting_tier.terms == [sdc_nlist.n_pairs]
        assert {s.args.get("phase") for s in tracer.spans} == KERNEL_PHASES


KERNEL_PHASES = {"density", "embedding", "force"}

#: phase names the parent commit (``PhaseProfiler`` + ``ProfilingObserver``)
#: emitted per cell, recorded by running its sweep: the cells of the
#: committed ``BENCH_forces.json`` are checked against that file, the
#: rest against this table.  Both process calculators run one evaluation
#: body, so the sharded cell reports the process cell's rows
PARENT_PHASES = {
    ("sdc-2d", "processes"): KERNEL_PHASES
    | {"neighbor-rebuild", "setup", "sync", "color-barrier", "total"},
    ("sdc-2d", "sharded"): KERNEL_PHASES
    | {"neighbor-rebuild", "setup", "sync", "color-barrier", "total"},
    ("sdc-1d", "threads"): KERNEL_PHASES
    | {"neighbor-rebuild", "color-barrier", "total"},
    ("localwrite", "threads"): KERNEL_PHASES
    | {"neighbor-rebuild", "color-barrier", "total"},
    ("redundant-computation", "serial"): KERNEL_PHASES
    | {"neighbor-rebuild", "color-barrier", "total"},
    ("critical-section", "threads"): KERNEL_PHASES | {"color-barrier", "total"},
    ("array-privatization", "threads"): KERNEL_PHASES | {"color-barrier", "total"},
    ("atomic", "serial"): KERNEL_PHASES | {"color-barrier", "total"},
}


def _committed_phases():
    """``{(strategy, backend): phases}`` of the BENCH_forces.json fixture
    beside this file."""
    from pathlib import Path

    path = Path(__file__).resolve().parent / "BENCH_forces.json"
    cells = {}
    for row in json.loads(path.read_text())["records"]:
        cells.setdefault((row["strategy"], row["backend"]), set()).add(row["phase"])
    return cells


EXPECTED_PHASES = {**PARENT_PHASES, **_committed_phases()}


class TestCellPhases:
    """The span reduction reports the same rows the two clocks did."""

    @pytest.mark.parametrize("strategy,backend", sorted(EXPECTED_PHASES))
    def test_phase_names_match_parent(self, strategy, backend):
        import multiprocessing as mp

        if backend in ("processes", "sharded") and (
            "fork" not in mp.get_all_start_methods()
        ):
            pytest.skip("requires fork")
        records = bench_forces(
            cases=("tiny",),
            strategies=(strategy,),
            backends=(backend,),
            n_workers=2,
            warmup=1,
            repeats=2,
        )
        median = {r.phase: r.median_s for r in records}
        assert set(median) == EXPECTED_PHASES[(strategy, backend)]
        # two samples: the median is the mean, so the closure is exact
        assert sum(median[p] for p in KERNEL_PHASES) <= 1.05 * median["total"]


class TestBenchSteps:
    @pytest.fixture(scope="class")
    def step_records(self):
        return bench_steps(
            cases=("tiny",),
            strategies=("sdc-2d",),
            backends=("serial", "threads"),
            n_workers=2,
            steps=3,
        )

    def test_first_step_and_amortized_phases_per_cell(self, step_records):
        for backend in ("serial", "threads"):
            phases = {
                r.phase for r in step_records if r.backend == backend
            }
            assert phases == {"first_step", "amortized"}

    def test_sample_counts_follow_steps(self, step_records):
        for r in step_records:
            if r.phase == "first_step":
                assert r.n_samples == 1 and r.iqr_s == 0.0
            else:
                assert r.n_samples == 2  # steps - 1
                assert r.pairs_per_s is not None and r.pairs_per_s > 0

    def test_records_round_trip_through_bench_schema(
        self, step_records, tmp_path
    ):
        path = tmp_path / "BENCH_forces.json"
        write_bench_json(path, [r.to_dict() for r in step_records])
        payload = json.loads(path.read_text())
        phases = {r["phase"] for r in payload["records"]}
        assert {"first_step", "amortized"} <= phases

    def test_amortization_table(self, step_records):
        table = render_amortization_table(step_records)
        assert "first step" in table
        assert "amortized" in table
        assert "x" in table

    def test_rejects_single_step(self):
        with pytest.raises(ValueError, match="steps"):
            bench_steps(cases=("tiny",), steps=1)


class TestBenchOutput:
    def test_write_json_schema(self, quick_records, tmp_path):
        path = tmp_path / "BENCH_forces.json"
        write_bench_json(path, [r.to_dict() for r in quick_records])
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-bench-v2"
        assert "platform" in payload["host"]
        meta = payload["meta"]
        for key in ("hostname", "cpu_count", "python", "numpy"):
            assert key in meta
        assert meta["cpu_count"] >= 1
        first = payload["records"][0]
        assert {
            "case",
            "strategy",
            "backend",
            "n_workers",
            "phase",
            "median_s",
            "iqr_s",
        } <= set(first)

    def test_render_table(self, quick_records):
        table = render_bench_table(quick_records)
        assert "sdc-2d" in table
        assert "pairs/s" in table

    def test_render_empty(self):
        assert "no benchmark" in render_bench_table([])

    def test_reordering_records_shape(self):
        result = measure_reordering(
            case=case_by_key("tiny"), n_threads=2, warmup=0, repeats=2
        )
        records = reordering_records(result)
        layouts = {
            (r["strategy"], r["layout"]) for r in records if "layout" in r
        }
        assert layouts == {
            ("serial", "sorted"),
            ("serial", "shuffled"),
            ("sdc-2d", "sorted"),
            ("sdc-2d", "shuffled"),
        }
        summary = records[-1]
        assert "serial_gain_percent" in summary
        assert summary["max_force_dev"] < 1e-10

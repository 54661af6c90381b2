"""The ``repro trace`` driver: traced sweeps and their artifacts."""

from __future__ import annotations

import json

import pytest

from repro.harness.tracing import TraceReport, run_trace
from repro.obs.tracer import CAT_MD, CAT_PHASE, CAT_TASK

REQUIRED_KEYS = {"ph", "ts", "dur", "pid", "tid", "name"}


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> TraceReport:
    out = tmp_path_factory.mktemp("trace-out")
    return run_trace(
        cases=("tiny",),
        strategies=("sdc",),
        backends=("threads",),
        n_workers=2,
        steps=2,
        output_dir=str(out),
    )


class TestRunTrace:
    def test_one_run_with_spans(self, report):
        assert [r.label for r in report.runs] == ["tiny/sdc/threads"]
        run = report.runs[0]
        assert run.n_steps == 2
        cats = {s.category for s in run.spans}
        assert {CAT_MD, CAT_PHASE, CAT_TASK} <= cats

    def test_md_step_spans_per_step(self, report):
        steps = [
            s for s in report.runs[0].spans if s.name == "md-step"
        ]
        assert sorted(s.args["step"] for s in steps) == [0, 1]

    def test_color_regions_recorded(self, report):
        names = {s.name for s in report.runs[0].spans}
        assert any(n.startswith("density:color") for n in names)
        assert any(n.startswith("force:color") for n in names)

    def test_registry_has_static_and_measured_imbalance(self, report):
        names = set(report.registry.names())
        assert {
            "pairs_processed",
            "color_load_imbalance_static",
            "phase_load_imbalance_measured",
            "phase_barrier_slack_s",
            "halo_fraction",
        } <= names

    def test_trace_json_is_valid_chrome_trace(self, report):
        payload = json.loads(open(report.trace_path).read())
        events = payload["traceEvents"]
        assert events
        for ev in events:
            assert REQUIRED_KEYS <= set(ev)
        assert payload["otherData"]["hostname"]

    def test_metrics_jsonl_parses(self, report):
        records = [
            json.loads(l) for l in open(report.metrics_path)
        ]
        assert all(
            {"metric", "kind", "value"} <= set(r) for r in records
        )
        imbalances = [
            r
            for r in records
            if r["metric"] == "color_load_imbalance_static"
        ]
        assert imbalances
        assert all(r["run"] == "tiny/sdc/threads" for r in imbalances)

    def test_run_log_structure(self, report):
        records = [json.loads(l) for l in open(report.runlog_path)]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta"
        assert "observables" in kinds
        events = {r.get("event") for r in records if r["kind"] == "event"}
        assert {"trace-run", "run-begin", "run-end"} <= events

    def test_summary_mentions_run_and_ranking(self, report):
        text = report.render_summary()
        assert "tiny/sdc/threads" in text
        assert "worst-balanced phases" in text

    def test_run_directory_round_trips(self, report, check_run_dir):
        import os

        check_run_dir(
            os.path.dirname(report.trace_path),
            {"metrics", "runlog", "health"},
        )

    def test_meta_collected_once_per_invocation(self, tmp_path, git_spawns):
        run_trace(steps=1, output_dir=str(tmp_path))
        assert len(git_spawns) == 1

    def test_in_memory_mode_writes_nothing(self):
        report = run_trace(steps=1)
        assert report.trace_path is None
        assert report.runs[0].spans


class TestShardedRun:
    def test_per_shard_gauges_describe_what_each_worker_sweeps(self):
        """One labeled metric set per shard, from the engine's own plans:
        the shards' pairs sum to the list, their owned atoms to the system,
        and ``halo_fraction`` is the ghost share of a shard's rows."""
        report = run_trace(
            cases=("tiny",), strategies=("sdc-2d",), backends=("sharded",),
            n_workers=2, steps=1,
        )
        run = "tiny/sdc-2d/sharded"
        value = report.registry.value
        per_shard = {
            name: [value(name, shard=str(k), run=run) for k in (0, 1)]
            for name in (
                "pairs_processed", "atoms_owned", "atoms_ghost", "halo_fraction"
            )
        }
        assert sum(per_shard["atoms_owned"]) == 432
        assert sum(per_shard["pairs_processed"]) == 432 * 7
        for owned, ghost, fraction in zip(
            per_shard["atoms_owned"],
            per_shard["atoms_ghost"],
            per_shard["halo_fraction"],
        ):
            assert ghost > 0
            assert fraction == pytest.approx(ghost / (owned + ghost))
        # no unlabeled twin that a shardless query could mistake for a run
        assert value("halo_fraction", run=run) is None


class TestSkips:
    def test_unsupported_combo_is_skipped(self):
        skips = []
        report = run_trace(
            cases=("tiny",),
            strategies=("array-privatization",),
            backends=("processes",),
            steps=1,
            on_skip=skips.append,
        )
        assert report.runs == []
        assert len(report.skipped) == 1
        assert "processes" in skips[0]

    def test_unknown_strategy_is_skipped(self):
        report = run_trace(
            cases=("tiny",), strategies=("bogus",), steps=1
        )
        assert report.runs == []
        assert "bogus" in report.skipped[0]

    def test_serial_strategy_only_on_serial_backend(self):
        report = run_trace(
            cases=("tiny",),
            strategies=("serial",),
            backends=("threads", "serial"),
            steps=1,
        )
        assert [r.label for r in report.runs] == ["tiny/serial/serial"]
        assert len(report.skipped) == 1

    def test_bad_steps_raises(self):
        with pytest.raises(ValueError):
            run_trace(steps=0)


@pytest.mark.slow
class TestProcessBackendTrace:
    def test_worker_spans_land_in_parent_domain(self, tmp_path):
        report = run_trace(
            cases=("tiny",),
            strategies=("sdc",),
            backends=("processes",),
            n_workers=2,
            steps=1,
            output_dir=str(tmp_path),
        )
        run = report.runs[0]
        tasks = [s for s in run.spans if s.category == CAT_TASK]
        assert tasks
        assert all(s.track.startswith("worker-") for s in tasks)
        phases = {
            s.args["phase"]: s for s in run.spans if s.category == CAT_PHASE
        }
        for task in tasks:
            phase = phases[task.args["phase"]]
            assert task.start_s >= phase.start_s - 1e-6
            assert task.end_s <= phase.end_s + 1e-6

"""The ``repro scale`` driver: sweep round-trip + efficiency math."""

from __future__ import annotations

import json
import time
import xml.etree.ElementTree as ET

import pytest

from repro.harness.scaling import (
    LOSS_COMPONENTS,
    SCALING_SCHEMA,
    _attribute_losses,
    karp_flatt,
    run_scale,
)
from repro.obs.tracer import CAT_BARRIER, CAT_TASK, Span


class TestKarpFlatt:
    def test_perfect_scaling_has_zero_serial_fraction(self):
        assert karp_flatt(2.0, 2) == pytest.approx(0.0)
        assert karp_flatt(4.0, 4) == pytest.approx(0.0)

    def test_no_speedup_means_fully_serial(self):
        assert karp_flatt(1.0, 2) == pytest.approx(1.0)
        assert karp_flatt(1.0, 8) == pytest.approx(1.0)

    def test_amdahl_consistency(self):
        # S(p) = 1 / (f + (1-f)/p) must recover f
        f, p = 0.2, 4
        speedup = 1.0 / (f + (1.0 - f) / p)
        assert karp_flatt(speedup, p) == pytest.approx(f)

    def test_undefined_cases(self):
        assert karp_flatt(1.0, 1) is None
        assert karp_flatt(0.0, 4) is None


class TestAttributeLosses:
    def test_pure_imbalance(self):
        # two tasks of one phase: 1s and 3s; the 2nd worker idles 2s,
        # reported as barrier slack overlapping the imbalance
        spans = [
            Span("t0", CAT_TASK, 0.0, 1.0, 1, "w0", {"phase": 0}),
            Span("t1", CAT_TASK, 0.0, 3.0, 1, "w1", {"phase": 0}),
            Span("b0", CAT_BARRIER, 1.0, 2.0, 1, "w0", {"phase": 0}),
        ]
        loss = _attribute_losses(
            spans,
            window_start_s=0.0,
            total_s=3.0,
            t1_s=4.0,
            n_workers=2,
            run_delay_s=0.0,
        )
        assert set(loss) == set(LOSS_COMPONENTS)
        # budget = 6 core-seconds; (max-mean)*n = (3-2)*2 = 2 of them idle
        assert loss["imbalance"] == pytest.approx(2.0 / 6.0)
        assert loss["barrier"] == pytest.approx(0.0)
        assert loss["serial"] == pytest.approx(0.0)
        assert loss["excess_work"] == pytest.approx(0.0)

    def test_serial_fraction_is_unscheduled_budget(self):
        # one 1s task in a 2s window on 2 workers: 3 of 4 core-seconds
        # had nothing scheduled
        spans = [Span("t0", CAT_TASK, 0.0, 1.0, 1, "w0", {"phase": 0})]
        loss = _attribute_losses(
            spans, 0.0, total_s=2.0, t1_s=1.0, n_workers=2,
            run_delay_s=0.0,
        )
        assert loss["serial"] == pytest.approx(3.0 / 4.0)

    def test_resource_pressure_scales_with_cpu_deficit(self):
        spans = [Span("t0", CAT_TASK, 0.0, 2.0, 1, "w0", {"phase": 0})]
        loss = _attribute_losses(
            spans, 0.0, total_s=2.0, t1_s=2.0, n_workers=1,
            run_delay_s=1.0,
        )
        # one of the 2 task-seconds waited in the run queue, over a 2s budget
        assert loss["resource_pressure"] == pytest.approx(0.5)

    def test_resource_pressure_never_exceeds_task_work(self):
        spans = [Span("t0", CAT_TASK, 0.0, 1.0, 1, "w0", {"phase": 0})]
        loss = _attribute_losses(
            spans, 0.0, total_s=2.0, t1_s=1.0, n_workers=2,
            run_delay_s=10.0,
        )
        # capped at the 1 task-second, over a 4 core-second budget
        assert loss["resource_pressure"] == pytest.approx(1.0 / 4.0)

    def test_warmup_spans_are_excluded(self):
        spans = [
            Span("warm", CAT_TASK, 0.0, 5.0, 1, "w0", {"phase": 0}),
            Span("t0", CAT_TASK, 10.0, 1.0, 1, "w0", {"phase": 1}),
        ]
        loss = _attribute_losses(
            spans, window_start_s=9.0, total_s=1.0, t1_s=1.0,
            n_workers=1, run_delay_s=0.0,
        )
        assert loss["excess_work"] == pytest.approx(0.0)

    def test_zero_budget_is_all_zero(self):
        loss = _attribute_losses([], 0.0, 0.0, 0.0, 2, 0.0)
        assert all(v == 0.0 for v in loss.values())


class TestRunScaleValidation:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            run_scale(case="tiny", steps=0)

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            run_scale(case="tiny", workers=())
        with pytest.raises(ValueError):
            run_scale(case="tiny", workers=(0, 2))


@pytest.fixture(scope="module")
def scale_report(tmp_path_factory):
    """One tiny 1->2-worker sweep, its run directory written."""
    out = tmp_path_factory.mktemp("scale")
    report = run_scale(
        case="tiny",
        strategy="sdc",
        backend="threads",
        workers=(1, 2),
        steps=2,
        output_dir=str(out / "artifacts"),
    )
    if not report.points:
        pytest.skip(f"sweep skipped everywhere: {report.skipped}")
    return report


class TestRunScaleRoundTrip:
    def test_points_carry_efficiency_quantities(self, scale_report):
        assert [p.n_workers for p in scale_report.points] == [1, 2]
        baseline, scaled = scale_report.points
        assert baseline.speedup == pytest.approx(1.0)
        assert baseline.efficiency == pytest.approx(1.0)
        assert baseline.karp_flatt is None
        assert scaled.karp_flatt is not None
        assert scaled.t1_s == pytest.approx(baseline.total_s)
        for point in scale_report.points:
            assert set(point.loss) == set(LOSS_COMPONENTS)
            assert all(0.0 <= v <= 1.0 for v in point.loss.values())

    def test_dominant_loss_only_past_the_baseline(self, scale_report):
        baseline, scaled = scale_report.points
        assert baseline.dominant_loss is None
        if any(v > 0 for v in scaled.loss.values()):
            assert scaled.dominant_loss in LOSS_COMPONENTS

    def test_scaling_json_schema(self, scale_report):
        with open(scale_report.scaling_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema"] == SCALING_SCHEMA
        assert payload["meta"]["kernel_tier"] == scale_report.kernel_tier
        records = payload["records"]
        assert len(records) == 2
        for record in records:
            assert record["phase"] == "total"
            assert record["median_s"] > 0
            for name in LOSS_COMPONENTS:
                assert f"loss_{name}" in record

    def test_run_directory_round_trips(self, scale_report, check_run_dir):
        import os

        check_run_dir(
            os.path.dirname(scale_report.scaling_path),
            {"scaling", "metrics", "health"},
        )

    def test_summary_names_dominant_loss(self, scale_report):
        text = scale_report.render_summary()
        assert "Karp-Flatt" in text
        assert "scaling sweep tiny/sdc/threads" in text
        scaled = scale_report.points[1]
        if scaled.dominant_loss is not None:
            assert scaled.dominant_loss in text

    def test_report_panel_round_trip(self, scale_report):
        import os

        from repro.obs.report import (
            load_report_source,
            render_html,
            render_text_summary,
        )

        data = load_report_source(os.path.dirname(scale_report.scaling_path))
        assert len(data.scaling_records) == 2
        html = render_html(data)
        ET.fromstring(html)  # strict XHTML: must parse as XML
        assert 'id="panel-scaling"' in html
        text = render_text_summary(data)
        assert "## Scaling efficiency" in text
        assert "tiny/sdc/threads/w2" in text


@pytest.mark.linux
class TestThreadsRingPoint:
    """One tiny point on a thread team, whose steps are rings: the window
    is each ring, this thread its worker 0."""

    def test_the_caller_window_covers_the_rings(self, monkeypatch):
        from repro import kernels
        from repro.core.strategies.sdc import SDCStrategy
        from repro.md.integrators import REBUILD

        if "c" not in kernels.available_tiers():
            pytest.skip("the thread team needs the C tier")
        rang, real = [], SDCStrategy.verlet_ring

        def spy(self, *args):
            out = real(self, *args)
            rang.append(out is not None and out is not REBUILD)
            return out

        monkeypatch.setattr(SDCStrategy, "verlet_ring", spy)
        with kernels.use_tier("c"):
            report = run_scale(case="tiny", backend="threads", workers=(2,), steps=3)
        if not report.points:
            pytest.skip(f"threads point skipped: {report.skipped}")
        point = report.points[0]
        assert point.total_s > 0
        assert sum(rang) == 3
        cpu = point.resources["worker_cpu_s"]
        assert len(cpu) == 1 and 0.0 < cpu[0] <= point.total_s  # the caller
        assert len(point.resources["worker_run_delay_s"]) == 1


@pytest.mark.linux
class TestProcessesRingPoint:
    """One tiny point on the process engine's doorbell team, whose steps
    are rings: the window is each ring, this process its worker 0 and the
    forked helper the other."""

    def test_the_caller_window_covers_the_rings(self, monkeypatch):
        from repro import kernels
        from repro.md.integrators import REBUILD
        from repro.parallel.backends.sharded import ShardEngine

        if "c" not in kernels.available_tiers():
            pytest.skip("the doorbell team needs the C tier")
        rang, real = [], ShardEngine.verlet_ring

        def spy(self, *args):
            out = real(self, *args)
            rang.append(out is not None and out is not REBUILD)
            return out

        monkeypatch.setattr(ShardEngine, "verlet_ring", spy)
        with kernels.use_tier("c"):
            report = run_scale(case="tiny", backend="processes", workers=(2,), steps=3)
        if not report.points:
            pytest.skip(f"processes point skipped: {report.skipped}")
        point = report.points[0]
        assert point.total_s > 0
        assert sum(rang) == 3
        cpu = point.resources["worker_cpu_s"]
        assert len(cpu) == 2 and 0.0 < cpu[0] <= point.total_s  # the caller
        assert 0.0 <= cpu[1] <= point.total_s
        assert len(point.resources["worker_run_delay_s"]) == 2


@pytest.mark.linux
class TestProcessesPoint:
    """One tiny point on forked workers: the window read of their pids."""

    @pytest.fixture(scope="class")
    def point(self):
        report = run_scale(
            case="tiny", backend="processes", workers=(2,), steps=3
        )
        if not report.points:
            pytest.skip(f"processes backend unavailable: {report.skipped}")
        return report.points[0]

    def test_worker_cpu_is_bounded_by_the_window(self, point):
        cpu = point.resources["worker_cpu_s"]
        assert len(cpu) == 2
        assert all(0.0 <= s <= point.total_s for s in cpu)

    def test_pressure_is_the_run_queue_wait(self, point):
        budget = point.n_workers * point.total_s
        delay = sum(point.resources["worker_run_delay_s"])
        pressure = point.loss["resource_pressure"]
        assert 0.0 <= pressure <= 1.0
        assert pressure <= delay / budget + 1e-12

    def test_unreadable_proc_gives_no_digest_and_no_pressure(
        self, monkeypatch
    ):
        from repro.obs import resources

        def refuse(*args, **kwargs):
            raise OSError("permission denied")

        monkeypatch.setattr(resources, "open", refuse, raising=False)
        report = run_scale(
            case="tiny", backend="processes", workers=(2,), steps=1
        )
        if not report.points:
            pytest.skip(f"processes backend unavailable: {report.skipped}")
        point = report.points[0]
        assert point.resources == {}
        assert point.loss["resource_pressure"] == 0.0

    def test_window_reads_stay_out_of_the_timed_force_window(self, monkeypatch):
        """A ``/proc`` read that takes ``slow_s`` leaves ``T(p)`` as it
        was: two of them bracket the evaluation, and ``total_s`` holds
        neither."""
        from repro.harness import scaling

        slow_s, calls, real = 0.2, [], scaling.read_window

        def slow_read(*args):
            calls.append(args)
            time.sleep(slow_s)
            return real(*args)

        monkeypatch.setattr(scaling, "read_window", slow_read)
        report = run_scale(
            case="tiny", backend="processes", workers=(2,), steps=1
        )
        if not report.points:
            pytest.skip(f"processes backend unavailable: {report.skipped}")
        point = report.points[0]
        assert len(calls) == 2
        assert point.total_s < slow_s
        assert len(point.resources["worker_cpu_s"]) == 2

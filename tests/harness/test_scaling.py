"""The ``repro scale`` driver: sweep round-trip + efficiency math."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from repro.harness.scaling import (
    LOSS_COMPONENTS,
    SCALING_SCHEMA,
    _attribute_losses,
    karp_flatt,
    run_scale,
)
from repro.obs.resources import resources_supported
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
            worker_cpu_percent=None,
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
            worker_cpu_percent=None,
        )
        assert loss["serial"] == pytest.approx(3.0 / 4.0)

    def test_resource_pressure_scales_with_cpu_deficit(self):
        spans = [Span("t0", CAT_TASK, 0.0, 2.0, 1, "w0", {"phase": 0})]
        loss = _attribute_losses(
            spans, 0.0, total_s=2.0, t1_s=2.0, n_workers=1,
            worker_cpu_percent=50.0,
        )
        # half of the 2 task-seconds were off-CPU, over a 2s budget
        assert loss["resource_pressure"] == pytest.approx(0.5)

    def test_warmup_spans_are_excluded(self):
        spans = [
            Span("warm", CAT_TASK, 0.0, 5.0, 1, "w0", {"phase": 0}),
            Span("t0", CAT_TASK, 10.0, 1.0, 1, "w0", {"phase": 1}),
        ]
        loss = _attribute_losses(
            spans, window_start_s=9.0, total_s=1.0, t1_s=1.0,
            n_workers=1, worker_cpu_percent=None,
        )
        assert loss["excess_work"] == pytest.approx(0.0)

    def test_zero_budget_is_all_zero(self):
        loss = _attribute_losses([], 0.0, 0.0, 0.0, 2, None)
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
        sample_interval_s=0.01,
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

    @pytest.mark.skipif(
        not resources_supported(), reason="no /proc filesystem"
    )
    def test_trace_json_has_counter_tracks(self, scale_report):
        with open(scale_report.trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        counters = [
            e for e in trace["traceEvents"] if e.get("ph") == "C"
        ]
        assert counters
        assert all("value" in e["args"] for e in counters)
        assert any(e["name"].endswith(" main") for e in counters)

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


@pytest.mark.slow
@pytest.mark.skipif(
    not resources_supported(), reason="no /proc filesystem"
)
class TestSamplerOverheadContract:
    def test_sampler_overhead_under_two_percent(self, potential, paired_overhead):
        """The sampler rides the <2% observability overhead contract.

        Interleaved pairs on the same warmed-up simulation (same process,
        same neighbor list): sampling at the default 50 ms cadence vs not
        sampling at all, judged on the median per-pair ratio of pairs with
        no Verlet rebuild in either arm.
        """
        import time

        from repro.harness.cases import case_by_key
        from repro.md.simulation import Simulation
        from repro.obs.resources import ResourceSampler

        atoms = case_by_key("medium").build(temperature=50.0)
        sim = Simulation(atoms, potential)
        sim.run(1, sample_every=1)  # warm caches + neighbor list

        def disabled():
            start = time.perf_counter()
            report = sim.run(2, sample_every=2)
            elapsed = time.perf_counter() - start
            return None if report.n_neighbor_rebuilds else elapsed

        def enabled() -> float:
            with ResourceSampler(interval_s=0.05):
                return disabled()

        ratio, ratios = paired_overhead(enabled, disabled, pairs=25)
        assert ratio <= 1.02, (
            f"sampler overhead {ratio - 1:.2%} exceeds the 2% contract "
            f"(per-pair ratios {ratios})"
        )

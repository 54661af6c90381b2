"""Metrics registry and the derived load-balance quantities."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.partition import build_pair_partition, build_partition
from repro.core.coloring import lattice_coloring
from repro.core.domain import decompose
from repro.core.schedule import build_schedule
from repro.obs.metrics import (
    MetricsRegistry,
    load_imbalance,
    record_racecheck_metrics,
    record_schedule_metrics,
    record_span_metrics,
)
from repro.obs.tracer import Tracer, trace_region


class TestLoadImbalance:
    def test_balanced_is_one(self):
        assert load_imbalance([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_max_over_mean(self):
        # mean 2.0, max 4.0
        assert load_imbalance([0.0, 2.0, 4.0]) == pytest.approx(2.0)

    def test_empty_and_all_zero_are_zero(self):
        assert load_imbalance([]) == 0.0
        assert load_imbalance([0.0, 0.0]) == 0.0


class TestMetricsRegistry:
    def test_counter_sums_on_query(self):
        reg = MetricsRegistry()
        reg.count("pairs", 3.0, run="a")
        reg.count("pairs", 4.0, run="a")
        reg.count("pairs", 100.0, run="b")
        assert reg.value("pairs", run="a") == pytest.approx(7.0)
        assert reg.value("pairs", run="b") == pytest.approx(100.0)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("ratio", 1.5, color=0)
        reg.gauge("ratio", 1.2, color=0)
        assert reg.value("ratio", color=0) == pytest.approx(1.2)

    def test_missing_metric_is_none(self):
        assert MetricsRegistry().value("nope") is None

    def test_names_first_seen_order(self):
        reg = MetricsRegistry()
        reg.gauge("b", 1.0)
        reg.count("a")
        reg.gauge("b", 2.0)
        assert reg.names() == ["b", "a"]

    def test_jsonl_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.count("pairs", 2.0, run="x")
        reg.gauge("halo", 0.25, run="x")
        path = tmp_path / "metrics.jsonl"
        reg.write_jsonl(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines == [
            {"metric": "pairs", "kind": "counter", "value": 2.0, "run": "x"},
            {"metric": "halo", "kind": "gauge", "value": 0.25, "run": "x"},
        ]

    def test_empty_registry_writes_empty_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        MetricsRegistry().write_jsonl(path)
        assert path.read_text() == ""


class TestRecordScheduleMetrics:
    @pytest.fixture()
    def decomposition(self, sdc_atoms, sdc_nlist):
        reach = sdc_nlist.cutoff + sdc_nlist.skin
        grid = decompose(sdc_atoms.box, reach, 2)
        partition = build_partition(sdc_nlist.reference_positions, grid)
        pairs = build_pair_partition(partition, sdc_nlist)
        schedule = build_schedule(lattice_coloring(grid))
        return pairs, schedule

    def test_records_expected_metric_names(self, decomposition):
        pairs, schedule = decomposition
        reg = MetricsRegistry()
        record_schedule_metrics(reg, pairs, schedule, run="r")
        names = set(reg.names())
        assert {
            "pairs_processed",
            "n_subdomains",
            "n_colors",
            "pairs_per_subdomain_max",
            "atoms_per_subdomain_mean",
            "halo_fraction",
            "color_load_imbalance_static",
        } <= names

    def test_pairs_processed_matches_neighbor_list(
        self, decomposition, sdc_nlist
    ):
        pairs, schedule = decomposition
        reg = MetricsRegistry()
        record_schedule_metrics(reg, pairs, schedule, run="r")
        assert reg.value("pairs_processed", run="r") == pytest.approx(
            float(sdc_nlist.n_pairs)
        )

    def test_halo_fraction_in_unit_interval(self, decomposition):
        pairs, schedule = decomposition
        reg = MetricsRegistry()
        record_schedule_metrics(reg, pairs, schedule)
        halo = reg.value("halo_fraction")
        assert 0.0 < halo < 1.0

    def test_one_imbalance_gauge_per_color(self, decomposition):
        pairs, schedule = decomposition
        reg = MetricsRegistry()
        record_schedule_metrics(reg, pairs, schedule)
        ratios = [
            r
            for r in reg.records()
            if r.name == "color_load_imbalance_static"
        ]
        assert len(ratios) == schedule.n_colors
        assert {r.labels["color"] for r in ratios} == set(
            range(schedule.n_colors)
        )
        for r in ratios:
            assert r.value >= 1.0 or r.value == 0.0


class TestRecordSpanMetrics:
    def _tracer_with_phase(self):
        tracer = Tracer()
        # phase 0 named after a color region, 0.5 s: tasks 0.10 s on w0
        # and 0.30 s on w1, each track waiting for the phase's end
        trace_region(tracer, (0.0, 0.5), [("density:color1", {})], [
            ([0.0, 0.1], "w0", 1), ([0.0, 0.3], "w1", 1),
        ])
        return tracer

    def test_measured_ratio_and_slack(self):
        reg = MetricsRegistry()
        record_span_metrics(reg, self._tracer_with_phase(), run="r")
        # durations 0.1/0.3: mean 0.2, max 0.3 -> ratio 1.5
        ratio = reg.value(
            "phase_load_imbalance_measured",
            run="r",
            phase=0,
            phase_name="density:color1/phase0",
            n_tasks=2,
        )
        assert ratio == pytest.approx(1.5)
        slack = reg.value(
            "phase_barrier_slack_s",
            run="r",
            phase=0,
            phase_name="density:color1/phase0",
        )
        assert slack == pytest.approx(0.4 + 0.2)

    def test_no_task_spans_records_nothing(self):
        reg = MetricsRegistry()
        record_span_metrics(reg, Tracer())
        assert len(reg) == 0


class TestRecordRacecheckMetrics:
    def test_clean_report_counts(self):
        from repro.analysis.racecheck import run_racecheck

        report = run_racecheck(strategy="sdc", cells=6, n_threads=2)
        reg = MetricsRegistry()
        record_racecheck_metrics(reg, report)
        labels = {
            "strategy": report.strategy,
            "workload": report.workload,
            "backend": report.backend,
        }
        assert reg.value("racecheck_conflicting_elements", **labels) == 0.0
        assert reg.value("racecheck_ok", **labels) == 1.0
        assert reg.value("racecheck_phases", **labels) == float(
            report.n_phases
        )
        assert reg.value("racecheck_max_force_error", **labels) is not None

    def test_injected_race_shows_nonzero_conflicts(self):
        from repro.analysis.racecheck import run_racecheck

        report = run_racecheck(
            strategy="sdc", cells=6, n_threads=2, inject="merge-colors"
        )
        reg = MetricsRegistry()
        record_racecheck_metrics(reg, report)
        labels = {
            "strategy": report.strategy,
            "workload": report.workload,
            "backend": report.backend,
        }
        assert reg.value("racecheck_conflicting_elements", **labels) > 0.0
        assert reg.value("racecheck_ok", **labels) == 0.0

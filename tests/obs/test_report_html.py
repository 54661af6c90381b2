"""HTML dashboard: data assembly, panel presence, well-formedness."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from repro.obs.report import (
    ReportData,
    load_report_source,
    render_html,
    render_text_summary,
    write_report,
)


def bench_records():
    rows = []
    for strategy, backend, workers, median in (
        ("serial", "serial", 1, 4.0),
        ("sdc-2d", "threads", 2, 2.0),
        ("sdc-2d", "threads", 4, 1.0),
    ):
        rows.append(
            {
                "case": "tiny",
                "strategy": strategy,
                "backend": backend,
                "n_workers": workers,
                "phase": "total",
                "median_s": median,
                "iqr_s": 0.1,
                "n_samples": 3,
            }
        )
    return rows


def metrics_records():
    return [
        {
            "metric": "phase_load_imbalance_measured",
            "kind": "gauge",
            "value": 1.4,
            "run": "tiny/sdc/threads",
            "phase": 0,
            "phase_name": "density:color0/phase0",
            "n_tasks": 4,
        },
        {
            "metric": "phase_barrier_slack_s",
            "kind": "gauge",
            "value": 0.002,
            "run": "tiny/sdc/threads",
            "phase": 0,
            "phase_name": "density:color0/phase0",
        },
        {
            "metric": "halo_fraction",
            "kind": "gauge",
            "value": 0.31,
            "run": "tiny/sdc/threads",
        },
    ]


def full_data():
    return ReportData(
        meta={"git_sha": "abc123def", "hostname": "h"},
        bench_records=bench_records(),
        metrics_records=metrics_records(),
    )


def panel_ids(html):
    root = ET.fromstring(html)
    return {e.get("id") for e in root.iter() if e.get("id")}


class TestDerivedViews:
    def test_speedup_normalized_to_serial(self):
        series = full_data().speedup_series()
        curve = series["tiny"]["sdc-2d/threads"]
        assert curve == [(2, 2.0), (4, 4.0)]
        assert series["tiny"]["serial/serial"] == [(1, 1.0)]

    def test_no_serial_reference_omits_case(self):
        data = ReportData(bench_records=bench_records()[1:])
        assert data.speedup_series() == {}

    def test_imbalance_rows_join_slack(self):
        (row,) = full_data().imbalance_rows()
        assert row["ratio"] == 1.4
        assert row["slack_s"] == 0.002

    def test_halo_fractions(self):
        assert full_data().halo_fractions() == {"tiny/sdc/threads": 0.31}


def amortization_records():
    rows = []
    for phase, median, samples in (
        ("first_step", 0.040, 1),
        ("amortized", 0.008, 9),
    ):
        rows.append(
            {
                "case": "tiny",
                "strategy": "sdc-2d",
                "backend": "processes",
                "n_workers": 2,
                "phase": phase,
                "median_s": median,
                "iqr_s": 0.0,
                "n_samples": samples,
            }
        )
    return rows


class TestAmortizationView:
    def test_rows_join_first_step_with_amortized(self):
        data = ReportData(bench_records=amortization_records())
        (row,) = data.amortization_rows()
        assert row["first_step_s"] == 0.040
        assert row["amortized_s"] == 0.008
        assert row["speedup"] == 5.0

    def test_half_cells_dropped(self):
        data = ReportData(bench_records=amortization_records()[:1])
        assert data.amortization_rows() == []

    def test_panel_rendered_and_well_formed(self):
        data = ReportData(
            bench_records=bench_records() + amortization_records()
        )
        page = render_html(data)
        root = ET.fromstring(page)
        ids = {
            el.get("id")
            for el in root.iter("{http://www.w3.org/1999/xhtml}section")
        }
        assert "panel-amortization" in ids
        assert "5.0x" in page

    def test_text_summary_mentions_amortization(self):
        data = ReportData(bench_records=amortization_records())
        text = render_text_summary(data)
        assert "amortization" in text.lower()
        assert "5.0x" in text


class TestRenderHtml:
    def test_is_well_formed_xml_with_all_panels(self):
        html = render_html(full_data())
        assert {
            "panel-speedup",
            "panel-strategies",
            "panel-imbalance",
            "panel-meta",
        } <= panel_ids(html)

    def test_empty_data_still_renders(self):
        html = render_html(ReportData())
        ids = panel_ids(html)
        assert "panel-speedup" in ids
        assert "panel-scaling" not in ids

    def test_labels_are_escaped(self):
        data = ReportData(
            meta={"note": "<script>alert('x')</script>"},
        )
        html = render_html(data)
        assert "<script>" not in html
        ET.fromstring(html)

    def test_speedup_panel_has_svg_curve(self):
        html = render_html(full_data())
        root = ET.fromstring(html)
        ns = "{http://www.w3.org/2000/svg}"
        speedup = next(
            e for e in root.iter() if e.get("id") == "panel-speedup"
        )
        polylines = speedup.findall(f".//{ns}polyline")
        assert polylines, "speedup panel missing its line chart"


class TestTextSummary:
    def test_mentions_speedups_and_imbalance(self):
        text = render_text_summary(full_data())
        assert "Speedup vs serial" in text
        assert "Worst-balanced phases" in text

    def test_empty_data_message(self):
        assert "nothing to report" in render_text_summary(ReportData())


class TestLoadReportSource:
    def _write_artifacts(self, directory):
        (directory / "BENCH_forces.json").write_text(
            json.dumps(
                {
                    "schema": "repro-bench-v2",
                    "meta": {"git_sha": "abc"},
                    "records": bench_records(),
                }
            )
        )
        (directory / "metrics.jsonl").write_text(
            "\n".join(json.dumps(m) for m in metrics_records()) + "\n"
        )

    def test_directory_source(self, tmp_path):
        self._write_artifacts(tmp_path)
        data = load_report_source(tmp_path)
        assert data.meta["git_sha"] == "abc"
        assert len(data.bench_records) == 3
        assert data.imbalance_rows()

    def test_file_source_is_rejected(self, tmp_path):
        self._write_artifacts(tmp_path)
        with pytest.raises(ValueError, match="not a run directory"):
            load_report_source(tmp_path / "BENCH_forces.json")

    def test_directory_source_loads_every_kind(self, tmp_path):
        from repro.obs.recorder import FlightRecorder
        from repro.obs.rundir import artifact_path, payload, write_payload

        self._write_artifacts(tmp_path)
        (tmp_path / "run.jsonl").write_text(
            '{"kind": "meta", "t": 0.0, "git_sha": "abc"}\n'
        )
        FlightRecorder().dump(tmp_path / "health.jsonl")
        for kind in ("reordering", "scaling"):
            write_payload(
                artifact_path(tmp_path, kind),
                payload(kind, [{"case": "tiny", "speedup": 2.0}], {}),
            )
        data = load_report_source(tmp_path)
        for attr in (
            "bench_records",
            "reordering_records",
            "scaling_records",
            "metrics_records",
            "runlog_records",
            "health_records",
        ):
            assert getattr(data, attr), attr
        assert data.meta == {"git_sha": "abc"}


class TestWriteReport:
    def test_writes_parseable_file(self, tmp_path):
        path = tmp_path / "report.html"
        write_report(path, full_data())
        ET.fromstring(path.read_text())

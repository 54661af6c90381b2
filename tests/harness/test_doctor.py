"""`repro doctor` self-check: healthy pass, fault injection, CLI wiring."""

from __future__ import annotations

import json
import os

import pytest

from repro import kernels
from repro.cli import build_parser, main
from repro.harness.doctor import FAULTS, DoctorReport, Finding, run_doctor
from repro.obs.recorder import read_health_jsonl


def c_tier_fell_back() -> bool:
    """The default tier wanted C and got NumPy (no compiler on ``PATH``):
    the one warning a healthy doctor run reports on such a host."""
    return kernels.tier_status()["c"]["state"] == "unavailable"


class TestHealthyDoctor:
    def test_exit_zero_with_all_checks_ok(self, tmp_path):
        report = run_doctor(
            case="tiny", steps=2, n_workers=2, output_dir=str(tmp_path)
        )
        assert report.exit_code == 0
        fallback = c_tier_fell_back()
        assert report.worst_status == ("warning" if fallback else "ok")
        by_name = {f.check: f for f in report.findings}
        assert set(by_name) == {
            "environment",
            "kernel-tier",
            "physics",
            "process-engine",
            "recorder",
            "sharded-engine",
        }
        for finding in report.findings:
            if not (fallback and finding.check == "kernel-tier"):
                assert finding.status in ("ok", "skip"), finding

    def test_health_artifact_validates_and_brackets_the_run(
        self, tmp_path, check_run_dir
    ):
        report = run_doctor(case="tiny", steps=2, output_dir=str(tmp_path))
        check_run_dir(tmp_path, {"health"})
        assert report.health_path == os.path.join(
            str(tmp_path), "health.jsonl"
        )
        meta, events = read_health_jsonl(report.health_path)
        names = [e["event"] for e in events]
        assert names[0] == "doctor-start"
        assert names[-1] == "doctor-end"
        assert events[-1]["exit_code"] == 0

    def test_snapshot_covers_invariants(self, tmp_path):
        report = run_doctor(case="tiny", steps=2, output_dir=str(tmp_path))
        assert report.snapshot["worst_invariant_status"] == "ok"
        assert "energy_drift" in report.snapshot["invariants"]

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="inject"):
            run_doctor(inject="meteor-strike")
        with pytest.raises(ValueError, match="steps"):
            run_doctor(steps=0)
        assert FAULTS == ("none", "worker-kill")


@pytest.mark.linux
class TestWorkerKillInjection:
    def test_exit_one_with_restart_events_in_artifact(self, tmp_path):
        report = run_doctor(
            case="tiny",
            steps=2,
            inject="worker-kill",
            output_dir=str(tmp_path),
        )
        assert report.exit_code == 1
        by_name = {f.check: f for f in report.findings}
        assert by_name["process-engine"].status == "critical"
        assert "pool restarted" in by_name["process-engine"].detail
        _, events = read_health_jsonl(report.health_path)
        names = {e["event"] for e in events}
        assert "worker-death" in names
        assert "pool-restart" in names


class TestReportRendering:
    def test_render_is_a_table_with_verdict(self):
        report = DoctorReport(
            findings=[
                Finding("environment", "ok", "python 3"),
                Finding("process-engine", "critical", "pool restarted"),
            ],
            snapshot={},
            inject="worker-kill",
        )
        text = report.render()
        lines = text.splitlines()
        assert lines[0].split() == ["check", "status", "detail"]
        assert any("process-engine" in line for line in lines)
        assert lines[-1] == "verdict: critical (inject=worker-kill)"

    def test_worst_status_orders_skip_below_ok(self):
        report = DoctorReport(
            findings=[Finding("process-engine", "skip", "no fork")],
            snapshot={},
        )
        assert report.worst_status == "skip"
        assert report.exit_code == 0


class TestCliWiring:
    def test_doctor_parser_defaults(self):
        args = build_parser().parse_args(["doctor"])
        assert args.case == "tiny"
        assert args.steps == 3
        assert args.inject == "none"

    def test_doctor_rejects_unknown_inject(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["doctor", "--inject", "gremlins"])

    def test_doctor_healthy_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "doctor",
                "--case", "tiny",
                "--steps", "2",
                "--output-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"verdict: {'warning' if c_tier_fell_back() else 'ok'}" in out
        assert "health.jsonl" in out

    @pytest.mark.linux
    def test_health_verb_reads_doctor_artifact(self, tmp_path, capsys):
        assert (
            main(
                [
                    "doctor",
                    "--case", "tiny",
                    "--steps", "2",
                    "--inject", "worker-kill",
                    "--output-dir", str(tmp_path),
                ]
            )
            == 1
        )
        capsys.readouterr()
        code = main(["health", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "worker-death" in out
        # --strict turns any warning+ event into exit 1
        assert main(["health", str(tmp_path), "--strict"]) == 1

    def test_health_verb_missing_artifact_exits_two(self, tmp_path, capsys):
        assert main(["health", str(tmp_path / "nope")]) == 2

    def test_health_verb_rejects_corrupt_artifact(self, tmp_path, capsys):
        path = tmp_path / "health.jsonl"
        path.write_text(json.dumps({"kind": "health"}) + "\n")
        assert main(["health", str(path)]) == 2

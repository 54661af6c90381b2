"""Command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        assert set(sub.choices) == {
            "table1",
            "fig9",
            "reordering",
            "census",
            "quickstart",
            "hybrid",
            "racecheck",
            "bench",
            "trace",
            "scale",
            "compare",
            "report",
            "doctor",
            "health",
        }

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_census(self, capsys):
        assert main(["census"]) == 0
        out = capsys.readouterr().out
        assert "small" in out
        assert "1-D" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "SDC (2-dimensional)" in out
        assert "blank pattern matches: True" in out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "sdc-2d" in out
        assert "critical-section" in out

    def test_reordering(self, capsys):
        assert main(["reordering"]) == 0
        out = capsys.readouterr().out
        assert "serial gain" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--cells", "6", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "energy drift" in out

    def test_hybrid(self, capsys):
        assert main(["hybrid", "--case", "large3", "--nodes", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "efficiency" in out

    def test_bench_quick(self, capsys, tmp_path, check_run_dir, git_spawns):
        assert (
            main(
                [
                    "bench",
                    "--quick",
                    "--repeats",
                    "2",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pairs/s" in out
        assert (tmp_path / "BENCH_forces.json").exists()
        assert (tmp_path / "BENCH_reordering.json").exists()
        check_run_dir(tmp_path, {"bench", "reordering"})
        assert len(git_spawns) == 1

        payload = json.loads((tmp_path / "BENCH_forces.json").read_text())
        assert payload["schema"] == "repro-bench-v2"
        assert payload["meta"]["n_threads"] == 2
        combos = {
            (r["strategy"], r["backend"])
            for r in payload["records"]
            if r["phase"] == "density"
        }
        assert {("serial", "serial"), ("sdc-2d", "threads")} <= combos
        for r in payload["records"]:
            assert len(r["samples_s"]) == r["n_samples"] == 2

    def test_trace(self, capsys, tmp_path):
        assert (
            main(
                [
                    "trace",
                    "--case",
                    "tiny",
                    "--strategy",
                    "sdc",
                    "--backend",
                    "threads",
                    "--steps",
                    "1",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worst-balanced phases" in out
        assert "perfetto" in out

        payload = json.loads((tmp_path / "trace.json").read_text())
        for ev in payload["traceEvents"]:
            assert {"ph", "ts", "dur", "pid", "tid", "name"} <= set(ev)
        metric_names = {
            json.loads(l)["metric"]
            for l in (tmp_path / "metrics.jsonl").read_text().splitlines()
        }
        assert "color_load_imbalance_static" in metric_names
        assert (tmp_path / "run.jsonl").exists()

    def test_trace_all_combos_skipped_fails(self, capsys, tmp_path):
        assert (
            main(
                [
                    "trace",
                    "--strategy",
                    "serial",
                    "--backend",
                    "threads",
                    "--steps",
                    "1",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 1
        )

    def test_scale(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "scale-out"
        assert (
            main(
                [
                    "scale",
                    "--case",
                    "tiny",
                    "--backend",
                    "threads",
                    "--workers",
                    "1,2",
                    "--steps",
                    "1",
                    "--output-dir",
                    "scale-out",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scaling sweep tiny/sdc/threads" in out
        assert "Karp-Flatt" in out

        payload = json.loads((out_dir / "scaling.json").read_text())
        assert payload["schema"] == "repro-scaling-v1"
        assert [r["n_workers"] for r in payload["records"]] == [1, 2]
        # the run directory is all a scale run leaves behind
        assert os.listdir(tmp_path) == ["scale-out"]

    def test_scale_rejects_bad_worker_list(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale", "--workers", "1,zero"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale", "--workers", "0,2"])

    def test_racecheck_metrics_stream(self, capsys, tmp_path):
        path = tmp_path / "race-metrics.jsonl"
        assert (
            main(
                [
                    "racecheck",
                    "--strategy",
                    "sdc",
                    "--cells",
                    "6",
                    "--metrics",
                    str(path),
                ]
            )
            == 0
        )
        records = [json.loads(l) for l in path.read_text().splitlines()]
        by_name = {r["metric"]: r for r in records}
        assert by_name["racecheck_conflicting_elements"]["value"] == 0.0
        assert by_name["racecheck_ok"]["value"] == 1.0
        assert by_name["racecheck_ok"]["strategy"] == "sdc"


class TestComparePipeline:
    """bench → compare → report, end-to-end through the real CLI."""

    def _bench(self, tmp_path, name):
        out_dir = tmp_path / name
        argv = [
            "bench",
            "--quick",
            "--repeats",
            "2",
            "--warmup",
            "0",
            "--skip-reordering",
            "--output-dir",
            str(out_dir),
        ]
        assert main(argv) == 0
        return out_dir

    def _edited(self, tmp_path, run, name, edit):
        """A copy of ``run``'s bench payload with ``edit`` applied to
        every record."""
        out_dir = tmp_path / name
        out_dir.mkdir()
        payload = json.loads((run / "BENCH_forces.json").read_text())
        for record in payload["records"]:
            edit(record)
        (out_dir / "BENCH_forces.json").write_text(json.dumps(payload))
        return out_dir

    def test_identical_run_is_unchanged_exit_0(self, capsys, tmp_path):
        run = self._bench(tmp_path, "run1")
        verdict_json = tmp_path / "verdicts.json"
        argv = ["compare", str(run), str(run), "--json", str(verdict_json)]
        assert main(argv) == 0
        # a noisy measured cell may be unresolved, never anything else
        verdicts = json.loads(verdict_json.read_text())["verdicts"]
        assert {v["verdict"] for v in verdicts} <= {"unchanged", "unresolved"}

        def steady(record):
            record["samples_s"] = [1.0, 1.0]

        quiet = self._edited(tmp_path, run, "quiet", steady)
        capsys.readouterr()
        assert main(["compare", str(quiet), str(quiet)]) == 0
        out = capsys.readouterr().out
        assert "unchanged" in out
        assert "unresolved" not in out
        assert "regression" not in out

    def test_slowed_candidate_is_regressed_exit_1(self, capsys, tmp_path):
        run = self._bench(tmp_path, "run1")

        def double(record):
            record["samples_s"] = [2.0 * s for s in record["samples_s"]]

        slow = self._edited(tmp_path, run, "slow", double)
        verdict_json = tmp_path / "verdicts.json"
        argv = ["compare", str(run), str(slow), "--json", str(verdict_json)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "regression(s) on total-phase cells" in out
        parsed = json.loads(verdict_json.read_text())
        totals = [v for v in parsed["verdicts"] if v["phase"] == "total"]
        assert {v["verdict"] for v in totals} == {"regression"}
        assert parsed["regressions"] == len(totals)

    def test_wide_baseline_spread_is_unresolved_exit_0(self, capsys, tmp_path):
        run = self._bench(tmp_path, "run1")

        def steady(record):
            record["samples_s"] = [1.0, 1.0]

        def spread(record):
            record["samples_s"] = [0.8, 1.2]

        base = self._edited(tmp_path, run, "noisy", spread)
        cand = self._edited(tmp_path, run, "steady", steady)
        assert main(["compare", str(base), str(cand)]) == 0
        out = capsys.readouterr().out
        assert "unresolved" in out
        assert "regression" not in out

    def test_payload_without_samples_exit_2(self, capsys, tmp_path):
        run = self._bench(tmp_path, "run1")
        old = self._edited(
            tmp_path, run, "old", lambda record: record.pop("samples_s")
        )
        capsys.readouterr()
        assert main(["compare", str(old), str(run)]) == 2
        err = capsys.readouterr().err
        assert str(old / "BENCH_forces.json") in err
        assert "samples_s" in err

    def test_missing_candidate_exit_2(self, capsys, tmp_path):
        run = self._bench(tmp_path, "run1")
        assert main(["compare", str(run), str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "a"],
            ["compare", "a", "b", "--threshold", "0.2"],
            ["compare", "a", "b", "--warn-only"],
            ["compare", "a", "b", "--all-phases"],
            ["compare", "a", "--baseline", "b"],
        ]
        + [[verb, "--store", "x"] for verb in ("bench", "trace", "scale")]
        + [["compare", "a", "b", "--store", "x"], ["report", "a", "--store", "x"]]
        + [
            ["trace", "--sample-resources"],
            ["scale", "--no-sample-resources"],
            ["scale", "--sample-interval", "0.1"],
        ],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_report_renders_dashboard(self, capsys, tmp_path):
        import xml.etree.ElementTree as ET

        run = self._bench(tmp_path, "run1")
        assert (
            main(
                [
                    "trace",
                    "--case",
                    "tiny",
                    "--strategy",
                    "sdc",
                    "--backend",
                    "threads",
                    "--steps",
                    "1",
                    "--output-dir",
                    str(run),
                ]
            )
            == 0
        )
        capsys.readouterr()
        html_path = tmp_path / "report.html"
        assert main(["report", str(run), "-o", str(html_path)]) == 0
        out = capsys.readouterr().out
        assert "Speedup vs serial" in out
        root = ET.fromstring(html_path.read_text())
        ids = {e.get("id") for e in root.iter() if e.get("id")}
        assert "panel-speedup" in ids
        assert "panel-imbalance" in ids

    def test_report_of_a_file_exit_2(self, capsys, tmp_path):
        run = self._bench(tmp_path, "run1")
        html_path = tmp_path / "report.html"
        source = run / "BENCH_forces.json"
        assert main(["report", str(source), "-o", str(html_path)]) == 2
        assert "not a run directory" in capsys.readouterr().err
        assert not html_path.exists()

    @pytest.mark.parametrize(
        "name", ["metrics.jsonl", "run.jsonl", "health.jsonl"]
    )
    def test_truncated_stream_is_named_exit_2(self, capsys, tmp_path, name):
        (tmp_path / name).write_text('{"kind": "meta", "t": 0.0}\n{"kind": ')
        argv = ["health", str(tmp_path)] if "health" in name else [
            "report", str(tmp_path), "-o", str(tmp_path / "report.html")
        ]
        assert main(argv) == 2
        assert f"{name}:2: " in capsys.readouterr().err

    def test_unclosed_run_log_is_named_exit_2(self, capsys, tmp_path):
        (tmp_path / "run.jsonl.tmp").write_text('{"kind": "meta", "t": 0.0}\n')
        html = tmp_path / "report.html"
        assert main(["report", str(tmp_path), "-o", str(html)]) == 2
        assert "run did not close its log" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"schema": "repro-bench-v2", "records": [', "BENCH_forces.json:1: "),
            ('{"schema": "repro-scaling-v1", "records": []}', "not a repro-bench"),
        ],
    )
    def test_unreadable_bench_payload_exit_2(
        self, capsys, tmp_path, text, message
    ):
        good = self._bench(tmp_path, "run1")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "BENCH_forces.json").write_text(text)
        capsys.readouterr()
        assert main(["compare", str(good), str(bad)]) == 2
        assert message in capsys.readouterr().err
        assert main(["compare", str(bad), str(good)]) == 2
        assert message in capsys.readouterr().err

    def test_report_missing_source_exit_2(self, tmp_path):
        assert (
            main(["report", str(tmp_path / "nope"), "-o", "x.html"]) == 2
        )


def test_module_invocation():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "census"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "small" in proc.stdout

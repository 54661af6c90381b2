"""Structured run logs and the environment meta block."""

from __future__ import annotations

import json
import time

from repro.obs.runlog import RunLog, collect_run_meta, git_sha


class TestCollectRunMeta:
    def test_has_required_keys(self):
        meta = collect_run_meta()
        for key in (
            "hostname",
            "platform",
            "machine",
            "cpu_count",
            "python",
            "numpy",
            "git_sha",
        ):
            assert key in meta
        assert meta["cpu_count"] >= 1
        assert "n_threads" not in meta

    def test_n_threads_included_when_given(self):
        assert collect_run_meta(4)["n_threads"] == 4

    def test_git_sha_in_this_repo(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and sha == sha.lower())

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(cwd=str(tmp_path)) is None

    def test_meta_is_json_serializable(self):
        json.dumps(collect_run_meta(2))


class TestRunLog:
    def test_meta_written_at_open(self):
        log = RunLog(meta={"hostname": "h"})
        assert [r["kind"] for r in log.records] == ["meta"]
        assert log.records[0]["hostname"] == "h"

    def test_log_adds_perf_counter_timestamp(self):
        log = RunLog(meta={})
        before = time.perf_counter()
        record = log.log("event", event="x")
        after = time.perf_counter()
        assert before <= record["t"] <= after

    def test_file_backed_streams_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, meta={"hostname": "h"}) as log:
            log.log("observables", step=0, potential_energy=-1.0)
            log.log("event", event="neighbor-rebuild", n_pairs=10)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["kind"] for r in lines] == ["meta", "observables", "event"]
        assert lines[1]["potential_energy"] == -1.0
        assert lines[2]["n_pairs"] == 10

    def test_file_is_flushed_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog(path, meta={})
        log.log("event", event="x")
        # the in-progress stream is tail-able before close...
        lines = open(str(path) + ".tmp").read().splitlines()
        assert len(lines) == 2
        # ...and the final path only appears, complete, at close
        assert not path.exists()
        log.close()
        assert len(path.read_text().splitlines()) == 2
        assert not (tmp_path / "run.jsonl.tmp").exists()

    def test_meta_carries_schema_version(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, meta={"hostname": "h"}) as log:
            assert log.records[0]["schema_version"] == 1
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta["kind"] == "meta"
        assert meta["schema_version"] == 1

    def test_collected_meta_gets_schema_version(self):
        log = RunLog()
        assert log.records[0]["schema_version"] == 1

    def test_in_memory_keeps_records(self):
        log = RunLog(meta={})
        log.log("event", event="a")
        assert log.path is None
        assert [r["kind"] for r in log.records] == ["meta", "event"]

    def test_non_serializable_values_are_stringified(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, meta={}) as log:
            log.log("event", value=complex(1, 2))
        lines = path.read_text().splitlines()
        assert json.loads(lines[1])["value"] == "(1+2j)"

    def test_file_backed_lines_are_the_sorted_json_of_each_record(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, meta={"hostname": "h"}) as log:
            log.log("observables", step=0, potential_energy=-1.5, z=None)
            log.log("event", event="x", value=complex(1, 2), nested={"b": 1, "a": [2]})
            records = log.records
        assert path.read_text() == "".join(
            json.dumps(r, sort_keys=True, default=str) + "\n" for r in records
        )

    def test_in_memory_records_keep_values_as_given(self):
        log = RunLog(meta={})
        value, opaque = complex(1, 2), object()
        record = log.log("event", value=value, opaque=opaque)
        assert record["value"] is value and record["opaque"] is opaque
        assert log.records[-1] is record

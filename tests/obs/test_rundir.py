"""The run-directory table: one writer, one reader, named failures."""

from __future__ import annotations

import json

import pytest

from repro.obs.recorder import FlightRecorder
from repro.obs.rundir import (
    ARTIFACTS,
    artifact_path,
    payload,
    read_artifact,
    read_jsonl,
    read_run_dir,
    resolve,
    write_payload,
)

STREAMS = [k for k, a in ARTIFACTS.items() if a.schema is None]


def write_stream(directory, kind):
    """A valid two-record stream of ``kind`` in ``directory``."""
    path = directory / ARTIFACTS[kind].filename
    if kind == "health":
        recorder = FlightRecorder()
        recorder.record("engine", "pool-start")
        recorder.dump(path)
    elif kind == "runlog":
        path.write_text(
            '{"kind": "meta", "t": 0.0, "git_sha": "abc"}\n'
            '{"kind": "event", "t": 0.1, "event": "x"}\n'
        )
    else:
        path.write_text(
            '{"metric": "halo_fraction", "kind": "gauge", "value": 0.25}\n'
            '{"metric": "n_colors", "kind": "gauge", "value": 4.0}\n'
        )
    return path


class TestTable:
    def test_six_kinds_with_distinct_files(self):
        assert len(ARTIFACTS) == 6
        assert len({a.filename for a in ARTIFACTS.values()}) == 6
        assert all(a.kind == kind for kind, a in ARTIFACTS.items())

    def test_payload_kinds_share_a_versioned_family(self):
        families = {a.family for a in ARTIFACTS.values() if a.schema}
        assert families == {"repro-bench", "repro-scaling"}

    def test_resolve_takes_a_directory_or_the_file(self, tmp_path):
        inside = artifact_path(tmp_path, "scaling")
        assert resolve(tmp_path, "scaling") == inside
        assert resolve(inside, "scaling") == inside


class TestRoundTrip:
    def test_payload_reads_back_with_its_meta(self, tmp_path):
        path = artifact_path(tmp_path, "scaling")
        body = payload("scaling", [{"n_workers": 1}], {"git_sha": "abc"})
        write_payload(path, body)
        assert json.loads(open(path).read()) == body
        assert read_artifact(tmp_path, "scaling") == (
            {"git_sha": "abc"},
            [{"n_workers": 1}],
        )

    def test_run_log_meta_is_its_own_meta_record(self, tmp_path):
        write_stream(tmp_path, "runlog")
        meta, records = read_artifact(tmp_path, "runlog")
        assert meta == {"git_sha": "abc"}
        assert [r["kind"] for r in records] == ["meta", "event"]

    def test_run_dir_holds_what_was_written(self, tmp_path):
        assert read_run_dir(tmp_path) == {}
        write_stream(tmp_path, "metrics")
        write_payload(
            artifact_path(tmp_path, "bench"), payload("bench", [], {})
        )
        assert list(read_run_dir(tmp_path)) == ["bench", "metrics"]


class TestHostileInput:
    @pytest.mark.parametrize("kind", STREAMS)
    def test_truncated_stream_names_file_and_line(self, tmp_path, kind):
        path = write_stream(tmp_path, kind)
        path.write_text(path.read_text() + '{"kind": "hea')
        with pytest.raises(ValueError, match=rf"{path.name}:3: "):
            read_artifact(tmp_path, kind)
        with pytest.raises(ValueError, match=rf"{path.name}:3: "):
            read_run_dir(tmp_path)

    def test_non_object_line_is_rejected(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="metrics.jsonl:1: not a JSON"):
            read_jsonl(path)

    def test_garbled_payload_names_the_file(self, tmp_path):
        path = tmp_path / "BENCH_forces.json"
        path.write_text('{"schema": "repro-bench-v2", "records": [')
        with pytest.raises(ValueError, match=r"BENCH_forces\.json:1: "):
            read_artifact(tmp_path, "bench")

    def test_wrong_schema_family_is_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        write_payload(path, payload("scaling", [], {}))
        with pytest.raises(ValueError, match="not a repro-bench payload"):
            read_artifact(path, "bench")
        # an older version of the right family still loads
        path.write_text('{"schema": "repro-bench-v1", "records": []}')
        assert read_artifact(path, "bench") == ({}, [])

    def test_invalid_health_stream_names_the_file(self, tmp_path):
        (tmp_path / "health.jsonl").write_text('{"kind": "health"}\n')
        with pytest.raises(ValueError, match=r"health\.jsonl: .*health-meta"):
            read_artifact(tmp_path, "health")

    def test_unclosed_run_log_is_named(self, tmp_path):
        (tmp_path / "run.jsonl.tmp").write_text('{"kind": "meta", "t": 0}\n')
        with pytest.raises(ValueError, match="did not close its log"):
            read_run_dir(tmp_path)

    def test_missing_artifact_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_artifact(tmp_path, "metrics")

"""Performance-history store: ingest, keying, trajectories."""

from __future__ import annotations

import json

import pytest

from repro.obs.history import (
    DEFAULT_STORE_PATH,
    HISTORY_SCHEMA,
    HistoryEntry,
    RunKey,
    RunStore,
    bench_cells,
)


def bench_payload(sha="abc123", median=1.0, cases=("tiny",)):
    records = []
    for case in cases:
        for strategy, backend, workers in (
            ("serial", "serial", 1),
            ("sdc-2d", "threads", 2),
        ):
            for phase in ("density", "total"):
                records.append(
                    {
                        "case": case,
                        "strategy": strategy,
                        "backend": backend,
                        "n_workers": workers,
                        "phase": phase,
                        "median_s": median,
                        "iqr_s": 0.01,
                        "n_samples": 3,
                    }
                )
    return {
        "schema": "repro-bench-v2",
        "meta": {"git_sha": sha, "hostname": "h", "n_threads": 2},
        "records": records,
    }


class TestRunStore:
    def test_missing_store_reads_empty(self, tmp_path):
        store = RunStore(tmp_path / "history.jsonl")
        assert store.entries() == []
        assert len(store) == 0
        assert store.latest("bench") is None
        assert store.baseline_bench() is None

    def test_append_bench_round_trips(self, tmp_path):
        store = RunStore(tmp_path / "history.jsonl")
        entry = store.append_bench(bench_payload())
        assert entry.seq == 0
        assert entry.kind == "bench"
        (read,) = store.entries()
        assert read.meta["git_sha"] == "abc123"
        assert read.records == entry.records

    def test_seq_increments_across_instances(self, tmp_path):
        path = tmp_path / "history.jsonl"
        RunStore(path).append_bench(bench_payload())
        entry = RunStore(path).append_bench(bench_payload(sha="def456"))
        assert entry.seq == 1
        assert [e.seq for e in RunStore(path).entries()] == [0, 1]

    def test_store_lines_carry_schema(self, tmp_path):
        path = tmp_path / "history.jsonl"
        RunStore(path).append_bench(bench_payload())
        line = json.loads(path.read_text().splitlines()[0])
        assert line["schema"] == HISTORY_SCHEMA

    def test_unknown_schema_line_rejected(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"schema": "other-v9", "seq": 0, "kind": "x"}\n')
        with pytest.raises(ValueError, match="other-v9"):
            RunStore(path).entries()

    def test_non_bench_payload_rejected(self, tmp_path):
        store = RunStore(tmp_path / "history.jsonl")
        with pytest.raises(ValueError, match="not a repro-bench"):
            store.append_bench({"schema": "something-else"})

    def test_baseline_excludes_candidate_seq(self, tmp_path):
        store = RunStore(tmp_path / "history.jsonl")
        first = store.append_bench(bench_payload(sha="base"))
        second = store.append_bench(bench_payload(sha="cand"))
        assert store.baseline_bench().seq == second.seq
        assert store.baseline_bench(exclude_seq=second.seq).seq == first.seq

    def test_append_records_extracts_runlog_meta(self, tmp_path):
        store = RunStore(tmp_path / "history.jsonl")
        entry = store.append_records(
            "runlog",
            [
                {"kind": "meta", "t": 0.0, "git_sha": "xyz", "hostname": "h"},
                {"kind": "event", "t": 0.1, "event": "x"},
            ],
        )
        assert entry.git_sha == "xyz"
        assert entry.meta["hostname"] == "h"
        assert "t" not in entry.meta

    def test_series_tracks_total_phase_over_time(self, tmp_path):
        store = RunStore(tmp_path / "history.jsonl")
        store.append_bench(bench_payload(sha="a", median=1.0))
        store.append_bench(bench_payload(sha="b", median=2.0))
        series = store.series()
        key = ("tiny", "serial", "serial", 1, "numpy")
        assert [m["median_s"] for _, m in series[key]] == [1.0, 2.0]
        assert [seq for seq, _ in series[key]] == [0, 1]

    def test_default_store_path(self):
        assert RunStore().path == DEFAULT_STORE_PATH

    def test_ingest_dir_picks_up_artifacts(self, tmp_path):
        (tmp_path / "BENCH_forces.json").write_text(
            json.dumps(bench_payload())
        )
        (tmp_path / "metrics.jsonl").write_text(
            '{"metric": "halo_fraction", "kind": "gauge", "value": 0.25}\n'
        )
        (tmp_path / "run.jsonl").write_text(
            '{"kind": "meta", "t": 0.0, "git_sha": "abc"}\n'
        )
        store = RunStore(tmp_path / "history.jsonl")
        appended = store.ingest_dir(tmp_path)
        assert [e.kind for e in appended] == ["bench", "metrics", "runlog"]

    def test_ingest_dir_takes_every_kind_in_the_table(self, tmp_path):
        from repro.obs.recorder import FlightRecorder
        from repro.obs.rundir import ARTIFACTS, artifact_path

        for kind, artifact in ARTIFACTS.items():
            path = artifact_path(tmp_path, kind)
            if artifact.schema is not None:
                payload = dict(bench_payload(), schema=artifact.schema)
                with open(path, "w") as handle:
                    json.dump(payload, handle)
            elif kind == "health":
                FlightRecorder().dump(path)
            else:
                with open(path, "w") as handle:
                    handle.write('{"kind": "meta", "t": 0.0, "value": 1}\n')
        appended = RunStore(tmp_path / "history.jsonl").ingest_dir(tmp_path)
        assert [(e.kind, e.source) for e in appended] == [
            (kind, artifact.filename) for kind, artifact in ARTIFACTS.items()
        ]

    def test_append_creates_parent_directory(self, tmp_path):
        store = RunStore(tmp_path / ".repro" / "history.jsonl")
        store.append_bench(bench_payload())
        assert len(store.entries()) == 1


class TestBenchCells:
    def test_keyed_by_cell_and_phase(self):
        entry = HistoryEntry(
            seq=0, kind="bench", source="", meta={"git_sha": "abc"},
            records=bench_payload()["records"],
        )
        cells = bench_cells(entry)
        key = RunKey("abc", "tiny", "serial", "serial", 1)
        assert (key, "total") in cells
        assert cells[(key, "total")]["median_s"] == 1.0

    def test_summary_rows_without_cell_fields_skipped(self):
        entry = HistoryEntry(
            seq=0, kind="bench", source="", meta={},
            records=[{"case": "tiny", "serial_gain_percent": 12.0}],
        )
        assert bench_cells(entry) == {}

    def test_series_drops_git_sha(self):
        key = RunKey("abc", "tiny", "serial", "serial", 1)
        assert key.series() == ("tiny", "serial", "serial", 1, "numpy")

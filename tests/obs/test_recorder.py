"""Flight recorder: ring bounds, counters, dump round-trip."""

from __future__ import annotations

import json

import pytest

from repro.obs.recorder import (
    HEALTH_SCHEMA_VERSION,
    FlightRecorder,
    get_recorder,
    read_health_jsonl,
    record,
    set_recorder,
    severity_rank,
    validate_health_records,
)


@pytest.fixture()
def isolated():
    """A fresh global recorder, restored afterwards."""
    recorder = FlightRecorder()
    previous = set_recorder(recorder)
    yield recorder
    set_recorder(previous)


class TestRing:
    def test_events_carry_structure(self):
        r = FlightRecorder()
        event = r.record(
            "engine", "pool-spawn", severity="info", n_workers=4
        )
        assert event.category == "engine"
        assert event.event == "pool-spawn"
        assert event.fields == {"n_workers": 4}
        assert event.t > 0

    def test_capacity_bounds_memory(self):
        r = FlightRecorder(capacity=8)
        for i in range(20):
            r.record("kernel", "e", index=i)
        events = r.events()
        assert len(events) == 8
        # oldest evicted, newest kept, order preserved
        assert [e.fields["index"] for e in events] == list(range(12, 20))
        assert r.n_recorded == 20
        assert r.n_dropped == 12

    def test_counts_survive_eviction(self):
        r = FlightRecorder(capacity=2)
        for _ in range(10):
            r.record("engine", "e", severity="warning")
        assert r.counts()["engine/warning"] == 10
        assert r.worst_severity() == "warning"

    def test_named_counters_are_cheap_and_cumulative(self):
        r = FlightRecorder()
        r.count("sharded_halo_refresh")
        r.count("sharded_halo_refresh", 2)
        assert r.counts()["sharded_halo_refresh"] == 3
        assert r.events() == []  # counters record no events

    def test_invalid_severity_rejected_categories_open(self):
        r = FlightRecorder()
        with pytest.raises(ValueError):
            r.record("engine", "e", severity="fatal")
        # categories are an open set — new producers need no registry edit
        assert r.record("my-new-subsystem", "e") is not None

    def test_filtering_by_category_and_severity(self):
        r = FlightRecorder()
        r.record("engine", "a", severity="debug")
        r.record("engine", "b", severity="critical")
        r.record("kernel", "c", severity="warning")
        assert [e.event for e in r.events(category="engine")] == ["a", "b"]
        assert [
            e.event for e in r.events(min_severity="warning")
        ] == ["b", "c"]

    def test_disabled_recorder_drops_everything(self):
        r = FlightRecorder()
        r.enabled = False
        r.record("engine", "e")
        r.count("x")
        assert r.events() == []
        assert r.n_recorded == 0
        assert r.counts() == {}

    def test_clear_resets_all_state(self):
        r = FlightRecorder()
        r.record("engine", "e", severity="critical")
        r.count("x")
        r.clear()
        assert r.events() == []
        assert r.n_recorded == 0
        assert r.counts() == {}
        assert r.worst_severity() is None


class TestGlobalRecorder:
    def test_set_recorder_isolates_and_restores(self):
        mine = FlightRecorder()
        previous = set_recorder(mine)
        try:
            record("scheduler", "neighbor-rebuild", n_pairs=10)
            assert get_recorder() is mine
            assert len(mine.events()) == 1
        finally:
            set_recorder(previous)
        assert get_recorder() is not mine

    def test_module_record_never_raises(self, isolated):
        # invalid severity on the module helper is swallowed, not raised
        assert record("engine", "e", severity="not-a-severity") is None


class TestDumpRoundTrip:
    def test_dump_and_read_back(self, tmp_path):
        r = FlightRecorder()
        r.record("engine", "pool-spawn", n_workers=2)
        r.record("physics", "invariant-breach", severity="critical")
        path = tmp_path / "health.jsonl"
        r.dump(path)
        meta, events = read_health_jsonl(path)
        assert meta["schema_version"] == HEALTH_SCHEMA_VERSION
        assert meta["n_recorded"] == 2
        assert [e["event"] for e in events] == [
            "pool-spawn",
            "invariant-breach",
        ]
        assert all(e["kind"] == "health" for e in events)

    def test_dump_is_atomic_jsonl(self, tmp_path):
        r = FlightRecorder()
        r.record("engine", "e")
        path = tmp_path / "health.jsonl"
        r.dump(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "health-meta"

    def test_validate_rejects_missing_header(self):
        with pytest.raises(ValueError, match="health-meta"):
            validate_health_records(
                [{"kind": "health", "event": "e"}]
            )

    def test_validate_rejects_wrong_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            validate_health_records(
                [
                    {
                        "kind": "health-meta",
                        "schema_version": HEALTH_SCHEMA_VERSION + 1,
                    }
                ]
            )

    def test_validate_rejects_malformed_events(self):
        meta = {
            "kind": "health-meta",
            "schema_version": HEALTH_SCHEMA_VERSION,
        }
        bad_kind = dict(
            kind="span", t=0.0, category="engine", event="e",
            severity="info",
        )
        with pytest.raises(ValueError):
            validate_health_records([meta, bad_kind])
        missing_key = dict(kind="health", t=0.0, category="engine")
        with pytest.raises(ValueError):
            validate_health_records([meta, missing_key])
        bad_severity = dict(
            kind="health", t=0.0, category="engine", event="e",
            severity="fatal",
        )
        with pytest.raises(ValueError):
            validate_health_records([meta, bad_severity])


def test_severity_rank_orders_and_tolerates_unknown():
    assert (
        severity_rank("debug")
        < severity_rank("info")
        < severity_rank("warning")
        < severity_rank("critical")
    )
    assert severity_rank("unknown") == severity_rank("info")

"""Smoke test of the step benchmark (not part of tier-1: testpaths = tests).

    PYTHONPATH=src python -m pytest benchmarks/step -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_result() -> dict:
    out = HERE / "out" / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_declaration_is_within_the_contract(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declaration["paths"] == ["benchmarks/step"]
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declaration[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in declaration["end_to_end"])
    setup = next(m for m in declaration["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_quick_run_reports_every_declared_metric(declaration, quick_result):
    assert [w["name"] for w in declaration["workloads"]] == list(
        quick_result["workloads"]
    )
    for key in ("nproc", "cpu_affinity", "loadavg_at_start", "python", "numpy",
                "kernel_tier", "numba", "git_sha", "thread_env"):
        assert key in quick_result["host"]
    for name, workload in quick_result["workloads"].items():
        assert workload["ops_failed"] == 0, name
        assert workload["ops_attempted"] > 20, name
        for key in ("end_to_end", "per_layer"):
            for metric in declaration[key]:
                entry = workload[key][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
        assert all(
            workload["end_to_end"][m["name"]]["value"] > 0
            for m in declaration["end_to_end"]
        )


def test_span_budget_closes(declaration, quick_result):
    """Per step: self times of all spans sum to the step span, none negative."""
    for workload in declaration["workloads"]:
        trace = json.loads(
            (HERE / "out" / f"trace-{workload['name']}.json").read_text()
        )
        events = {e["args"]["id"]: e for e in trace["traceEvents"]}
        self_us = {i: e["dur"] for i, e in events.items()}
        for e in events.values():
            parent = e["args"]["parent"]
            if parent >= 0:
                self_us[parent] -= e["dur"]
                outer = events[parent]
                assert outer["ts"] <= e["ts"]
                assert e["ts"] + e["dur"] <= outer["ts"] + outer["dur"] + 1e-3
        assert min(self_us.values()) > -1e-3
        steps = [e for e in events.values() if e["name"] == "step"]
        assert len(steps) == quick_result["workloads"][workload["name"]][
            "per_layer"]["md.simulation.steps"]["value"]
        for step in steps:
            members = [
                i for i, e in events.items()
                if e["args"]["step"] == step["args"]["step"]
            ]
            assert abs(sum(self_us[i] for i in members) - step["dur"]) < 1.0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_run_prints_the_contract_line(declaration, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload",
         "threads-steady", "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = declaration["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in line["metrics"].items()
    }

"""The one verdict rule: its agreement with the step benchmark's
``compare.py``, its zero-median answer, gating and report rendering."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.regress import (
    BOUND,
    RegressionReport,
    compare_payloads,
    quartiles,
    verdict,
)


def _load_step_compare():
    """``benchmarks/step/compare.py``, imported by path (it is a script)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "step" / "compare.py"
    spec = importlib.util.spec_from_file_location("step_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


step_compare = _load_step_compare()


def payload(samples=(1.0, 1.0, 1.0), sha="base", phase="total", extra=()):
    records = [
        {
            "case": "tiny",
            "strategy": "sdc-2d",
            "backend": "threads",
            "n_workers": 2,
            "kernel_tier": "c",
            "phase": phase,
            "median_s": quartiles(samples)[1],
            "iqr_s": 0.0,
            "n_samples": len(samples),
            "samples_s": list(samples),
        }
    ]
    records.extend(extra)
    return {"schema": "repro-bench-v2", "meta": {"git_sha": sha}, "records": records}


def scaled(factor, samples=(1.0, 1.0, 1.0)):
    return [s * factor for s in samples]


def single_verdict(base, cand):
    report = compare_payloads(base, cand)
    assert len(report.verdicts) == 1
    return report.verdicts[0]


class TestRuleMatchesStepBenchmark:
    @settings(max_examples=300, deadline=None)
    @given(
        a=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=9),
        b=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=9),
        better=st.sampled_from(["lower", "higher"]),
        bound=st.floats(0.05, 0.3),
    )
    # ties at the bound, exact in binary: worsening 25 %, spread 25 %
    @example(a=[1.0], b=[1.25], better="lower", bound=0.25)
    @example(a=[0.875, 1.0, 1.125], b=[1.0], better="lower", bound=0.25)
    def test_same_verdict_as_compare_py(self, a, b, better, bound):
        qa, qb = step_compare.quartiles(a), step_compare.quartiles(b)
        expected = step_compare.verdict(a, b, qa, qb, better, bound)
        assert verdict(a, b, better, bound) == expected

    def test_quartiles_of_one_repeat(self):
        assert quartiles([2.0]) == (2.0, 2.0, 2.0)


class TestZeroMedian:
    """A clamped ``color-barrier`` row can have a zero median."""

    def test_compare_py_arithmetic_divides_by_it(self):
        a, b = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        qa, qb = step_compare.quartiles(a), step_compare.quartiles(b)
        with pytest.raises(ZeroDivisionError):
            step_compare.verdict(a, b, qa, qb, "lower", BOUND)

    def test_both_zero_is_unchanged(self):
        assert verdict([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", BOUND) == "unchanged"

    def test_direction_decides_against_a_zero_baseline(self):
        assert verdict([0.0], [0.1], "lower", BOUND) == "regression"
        assert verdict([0.0], [0.1], "higher", BOUND) == "improved"

    def test_zero_candidate_median_is_defined(self):
        assert verdict([1.0, 1.0], [0.0, 0.0], "lower", BOUND) == "improved"


class TestVerdicts:
    def test_identical_runs_unchanged(self):
        v = single_verdict(payload(), payload(sha="cand"))
        assert v.verdict == "unchanged"
        assert v.ratio == 1.0

    def test_slowdown_beyond_threshold_regresses(self):
        v = single_verdict(payload(), payload(scaled(1.5), sha="cand"))
        assert v.verdict == "regression"
        assert v.ratio == 1.5

    def test_speedup_beyond_threshold_improves(self):
        v = single_verdict(payload(), payload(scaled(0.5)))
        assert v.verdict == "improved"

    def test_slowdown_within_threshold_unchanged(self):
        v = single_verdict(payload(), payload(scaled(1.0 + BOUND / 2)))
        assert v.verdict == "unchanged"

    def test_wide_spread_is_unresolved(self):
        # 5% slower in the median, but the baseline repeats spread 40%
        v = single_verdict(
            payload((0.8, 1.0, 1.2)), payload((1.05, 1.05, 1.05))
        )
        assert v.verdict == "unresolved"

    def test_missing_baseline_cell(self):
        other = dict(payload()["records"][0], case="mini")
        report = compare_payloads(payload(), payload(extra=[other]))
        by_case = {v.key[0]: v.verdict for v in report.verdicts}
        assert by_case == {"tiny": "unchanged", "mini": "no-baseline"}

    def test_custom_threshold(self):
        assert verdict([1.0], [1.05], "lower", 0.01) == "regression"
        assert verdict([1.0], [1.05], "lower", 0.10) == "unchanged"

    def test_zero_baseline_median_unchanged(self):
        v = single_verdict(payload((0.0, 0.0)), payload((0.0, 0.0)))
        assert v.verdict == "unchanged"
        assert v.ratio is None

    def test_record_without_samples_names_source(self):
        old = payload()
        del old["records"][0]["samples_s"]
        with pytest.raises(ValueError, match=r"old/BENCH_forces\.json: .*samples_s"):
            compare_payloads(old, payload(), "old/BENCH_forces.json")


class TestGating:
    def test_total_phase_gates_by_default(self):
        report = compare_payloads(payload(), payload(scaled(2.0)))
        assert report.exit_code == 1
        assert len(report.regressions) == 1

    def test_non_total_phase_does_not_gate(self):
        report = compare_payloads(
            payload(phase="density"), payload(scaled(2.0), phase="density")
        )
        assert [v.verdict for v in report.verdicts] == ["regression"]
        assert report.exit_code == 0

    def test_no_baseline_never_gates_by_itself(self):
        report = compare_payloads(
            {"schema": "repro-bench-v2", "meta": {}, "records": []},
            payload(scaled(2.0)),
        )
        assert report.verdicts[0].verdict == "no-baseline"
        assert report.exit_code == 0


class TestReport:
    def test_shas_recorded(self):
        report = compare_payloads(payload(), payload(sha="cand"))
        assert report.baseline_sha == "base"
        assert report.candidate_sha == "cand"

    def test_counts(self):
        report = compare_payloads(payload(), payload(scaled(2.0)))
        assert report.counts() == {"regression": 1}

    def test_render_flags_hard_regressions(self):
        text = compare_payloads(payload(), payload(scaled(2.0))).render()
        assert "FAIL" in text
        assert "1 regression(s) on total-phase cells" in text
        assert "tiny/sdc-2d/threads/w2/c" in text
        assert "bound 10%" in text

    def test_render_empty(self):
        assert "(no comparable cells)" in RegressionReport().render()

    def test_to_dict_round_trips_json(self):
        report = compare_payloads(payload(), payload(scaled(2.0)))
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["schema"] == "repro-compare-v2"
        assert parsed["regressions"] == 1
        assert parsed["verdicts"][0]["verdict"] == "regression"
        assert parsed["verdicts"][0]["baseline_quartiles_s"] == [1.0, 1.0, 1.0]

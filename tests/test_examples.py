"""Smoke tests for the example applications.

Every example must import cleanly (no stale API usage) and the cheap ones
must run end-to-end with scaled-down parameters.  The expensive ones are
exercised manually / by the benchmark harness.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples.{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expected_examples_present():
    assert set(ALL_EXAMPLES) >= {
        "quickstart",
        "fe_microdeformation",
        "strategy_comparison",
        "scaling_study",
        "potential_tables",
        "future_platforms",
        "alloy_demo",
        "lattice_constant",
    }


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_imports(name):
    """Import without executing main(): catches API drift."""
    module = load_example(name)
    assert hasattr(module, "main")


def test_quickstart_runs_small(capsys):
    module = load_example("quickstart")
    # 8 cells: the smallest cube hosting the example's 2-D SDC grid
    module.main(8, 5)
    out = capsys.readouterr().out
    assert "energy drift" in out


def test_potential_tables_runs(tmp_path, capsys):
    module = load_example("potential_tables")
    module.main(str(tmp_path / "fe.setfl"))
    out = capsys.readouterr().out
    assert "validated" in out


def test_strategy_comparison_anatomy_reads_the_tracer(capsys):
    from repro.harness.runner import ExperimentRunner

    load_example("strategy_comparison").anatomy_section(ExperimentRunner())
    out = capsys.readouterr().out
    for text in ("force:merge", "color-barrier", "utilization", "barrier wait"):
        assert text in out

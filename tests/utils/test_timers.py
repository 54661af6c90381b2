"""Driver time accounting (what replaced ``Stopwatch``) and ``Counter``."""

import pytest

from repro.harness.cases import Case
from repro.md.simulation import Simulation, SimulationReport
from repro.obs.runlog import RunLog
from repro.potentials import fe_potential
from repro.utils.timers import Counter


def _sim(**kwargs) -> Simulation:
    atoms = Case(key="t", label="t", n_cells=4).build(temperature=50.0, seed=2)
    return Simulation(atoms, fe_potential(), **kwargs)


class TestStopwatch:
    """The MD driver's two plain fields: force seconds and rebuild count."""

    def test_section_accumulates(self):
        sim = _sim()
        sim.compute_forces()
        once = sim.force_seconds
        sim.compute_forces()
        assert 0.0 < once < sim.force_seconds
        assert sim.n_neighbor_rebuilds == 1

    def test_unknown_section_is_zero(self):
        sim = _sim()
        assert sim.force_seconds == 0.0
        assert sim.n_neighbor_rebuilds == 0

    def test_manual_add(self):
        """An evaluation between runs counts for the lifetime, not a run."""
        sim = _sim()
        sim.run(1)
        sim.compute_forces()
        before = sim.force_seconds
        report = sim.run(2)
        assert report.force_seconds == pytest.approx(sim.force_seconds - before)

    def test_reset(self):
        """Every run reports from zero, whatever ran before it."""
        sim = _sim(rebuild_every=1)
        assert sim.run(3).n_neighbor_rebuilds >= 3
        report = sim.run(0)
        assert report.force_seconds == 0.0
        assert report.n_neighbor_rebuilds == 0

    def test_report_contains_sections(self):
        log = RunLog()
        sim = _sim(run_log=log)
        sim.run(2)
        report = sim.run(2)
        end = [r for r in log.records if r.get("event") == "run-end"][-1]
        assert end["force_seconds"] == report.force_seconds
        assert end["n_neighbor_rebuilds"] == report.n_neighbor_rebuilds

    def test_report_empty(self):
        report = SimulationReport()
        assert report.force_seconds == 0.0
        assert report.n_neighbor_rebuilds == 0
        assert len(report.energies()) == 0


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("pairs", 10)
        c.add("pairs", 5)
        assert c.get("pairs") == 15

    def test_default_increment_is_one(self):
        c = Counter()
        c.add("x")
        assert c.get("x") == 1

    def test_unknown_counter_is_zero(self):
        assert Counter().get("nope") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add("x", -1)

    def test_merge(self):
        a, b = Counter(), Counter()
        a.add("x", 2)
        b.add("x", 3)
        b.add("y", 1)
        a.merge(b)
        assert a.get("x") == 5
        assert a.get("y") == 1

    def test_reset(self):
        c = Counter()
        c.add("x", 4)
        c.reset()
        assert c.get("x") == 0

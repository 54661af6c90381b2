"""Phase statistics: the reduction over Tracer spans + the repeat driver."""

import time

import numpy as np
import pytest

from repro.obs.tracer import (
    CAT_PHASE,
    CAT_REGION,
    CAT_TASK,
    NULL_SPAN,
    Span,
    Tracer,
    trace_region,
)
from repro.utils.profiler import (
    CANONICAL_PHASES,
    PhaseStats,
    measure,
    phase_names,
    phase_samples,
    phase_stats,
    render_phase_table,
)
from repro.utils.timers import median_iqr


def span(name, start, duration, category="region", track="main", **args):
    """A hand-built span: no clock involved."""
    return Span(
        name=name,
        category=category,
        start_s=start,
        duration_s=duration,
        pid=1,
        track=track,
        args=args,
    )


def color_phase(kind, color, index, start, wall, phase_wall, tasks):
    """One SDC color region + its backend phase span and task spans."""
    out = [
        span(f"{kind}:color{color}", start, wall, phase=kind, color=color),
        span(
            f"{kind}:color{color}/phase{index}",
            start,
            phase_wall,
            category=CAT_PHASE,
            phase=index,
            n_tasks=len(tasks),
        ),
    ]
    for k, duration in enumerate(tasks):
        out.append(
            span(
                f"task {index}.{k}",
                start,
                duration,
                category=CAT_TASK,
                track=f"worker-{k}",
                phase=index,
                task=k,
            )
        )
    return out


def repeat(start, wall, density, force, warmup=False):
    """One evaluation: two density colors, embedding, one force color.

    ``density`` / ``force`` are ``(region wall, phase wall, task durations)``
    tuples; every duration is a binary fraction so sums compare exactly.
    """
    spans = [span("total", start, wall, phase="total", warmup=warmup)]
    spans.append(span("neighbor-rebuild", start, 0.25, phase="neighbor-rebuild"))
    t = start + 0.25
    for color, (region, phase_wall, tasks) in enumerate(density):
        spans += color_phase("density", color, color, t, region, phase_wall, tasks)
        # detail nested inside a task, on the worker's track: never counted
        spans.append(
            span("density:lock-held", t, tasks[0] / 2, track="worker-0", n_pairs=7)
        )
        t += region
    spans.append(span("embedding", t, 0.125, phase="embedding"))
    t += 0.125
    region, phase_wall, tasks = force
    spans += color_phase("force", 0, len(density), t, region, phase_wall, tasks)
    return spans


HAND_BUILT = (
    # warm-up: ten times slower, must leave no trace in the statistics
    repeat(
        0.0, 100.0,
        density=[(20.0, 20.0, [20.0, 1.0]), (10.0, 10.0, [10.0])],
        force=(30.0, 30.0, [1.0, 1.0]),
        warmup=True,
    )
    + repeat(
        100.0, 8.0,
        # color 0: uneven tasks, 0.5 of slack; color 1: a task "outlasting"
        # its phase through clock skew — negative slack clamps to 0
        density=[(2.0, 2.0, [1.5, 0.5]), (1.0, 0.75, [1.0, 0.25])],
        force=(3.0, 2.5, [2.25, 2.0]),
    )
    + repeat(
        200.0, 6.0,
        density=[(1.0, 1.0, [1.0, 1.0]), (1.0, 1.0, [0.5, 0.5])],
        force=(2.0, 2.0, [1.25, 0.75]),
    )
)


class TestReduction:
    """Clock-free: exact statistics from a hand-built span list."""

    def test_exact_phase_samples(self):
        assert phase_samples(HAND_BUILT) == {
            "total": [8.0, 6.0],
            "neighbor-rebuild": [0.25, 0.25],
            "density": [3.0, 2.0],
            "embedding": [0.125, 0.125],
            "force": [3.0, 2.0],
            # repeat 1: (2.0 - 1.5) + max(0, 0.75 - 1.0) + (2.5 - 2.25)
            # repeat 2: 0 + (1.0 - 0.5) + (2.0 - 1.25)
            "color-barrier": [0.75, 1.25],
        }

    def test_exact_phase_stats(self):
        stats = phase_stats(HAND_BUILT)
        assert stats["density"] == PhaseStats(
            phase="density",
            n_samples=2,
            median_s=2.5,
            iqr_s=0.5,
            min_s=2.0,
            max_s=3.0,
        )
        assert stats["total"].median_s == 7.0
        assert stats["color-barrier"].median_s == 1.0
        assert {s.n_samples for s in stats.values()} == {2}

    def test_barrier_is_phase_minus_longest_task(self):
        spans = color_phase("density", 0, 4, 0.0, 2.0, 2.0, [1.5, 0.5, 0.25])
        assert phase_samples(spans)["color-barrier"] == [0.5]

    def test_nested_detail_spans_not_double_counted(self):
        spans = [
            span("density:critical-scatter", 0.0, 2.0, phase="density"),
            span("density:lock-held", 0.5, 1.0, track="worker-0"),
            span("density:lock-held", 0.5, 1.0, track="worker-1"),
        ]
        assert phase_samples(spans) == {"density": [2.0]}

    def test_no_backend_phase_means_no_barrier_row(self):
        spans = [span("density", 0.0, 1.0, phase="density")]
        assert "color-barrier" not in phase_samples(spans)


class TestMedianIqr:
    def test_single_sample(self):
        med, iqr = median_iqr([2.0])
        assert med == 2.0
        assert iqr == 0.0

    def test_odd_samples(self):
        med, iqr = median_iqr([1.0, 2.0, 9.0])
        assert med == 2.0
        assert iqr == pytest.approx(4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_iqr([])

    def test_outlier_robust(self):
        samples = [1.0] * 9 + [100.0]
        med, _ = median_iqr(samples)
        assert med == 1.0


class TestPhaseProfiler:
    """The protocol the deleted ``PhaseProfiler`` class implemented."""

    def test_phase_context_accumulates(self):
        tracer = Tracer()
        with tracer.span("density:color0", phase="density"):
            time.sleep(0.002)
        stats = phase_stats(tracer.spans)
        assert stats["density"].n_samples == 1
        assert stats["density"].median_s >= 0.001

    def test_repeat_sums_sections_within_one_repeat(self):
        spans = [
            span("total", 0.0, 1.0, phase="total"),
            span("force:color0", 0.0, 0.25, phase="force"),
            span("force:color1", 0.25, 0.25, phase="force"),
        ]
        assert phase_stats(spans)["force"].median_s == 0.5

    def test_warmup_repeats_discarded(self):
        spans = [
            span("total", 0.0, 200.0, phase="total", warmup=True),
            span("density", 1.0, 100.0, phase="density"),
            span("total", 200.0, 2.0, phase="total", warmup=False),
            span("density", 200.5, 1.0, phase="density"),
        ]
        stats = phase_stats(spans)
        assert stats["density"].n_samples == 1
        assert stats["density"].median_s == 1.0

    def test_negative_durations_clamped(self):
        # a task that (through cross-worker clock skew) outlasts its phase
        spans = color_phase("density", 0, 0, 0.0, 1.0, 1.0, [1.5])
        assert phase_stats(spans)["color-barrier"].median_s == 0.0

    def test_canonical_ordering(self):
        stats = phase_stats(
            [
                span("total", 0.0, 4.0, phase="total"),
                span("x", 0.0, 1.0, phase="zzz-custom"),
                span("x", 1.0, 1.0, phase="force"),
                span("x", 2.0, 1.0, phase="density"),
            ]
        )
        assert phase_names(stats) == ["density", "force", "zzz-custom", "total"]
        assert phase_names(stats)[0] == CANONICAL_PHASES[0]

    def test_measure_protocol(self):
        tracer = Tracer()
        calls = []

        def fn():
            calls.append(1)
            with tracer.span("density", phase="density"):
                pass

        stats = measure(tracer, fn, warmup=2, repeats=3)
        assert len(calls) == 5
        assert stats["density"].n_samples == 3
        assert stats["total"].n_samples == 3
        assert stats["total"].median_s >= stats["density"].median_s

    def test_measure_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            measure(Tracer(), lambda: None, warmup=-1)
        with pytest.raises(ValueError):
            measure(Tracer(), lambda: None, repeats=0)

    def test_reset(self):
        tracer = Tracer()
        measure(tracer, lambda: None, warmup=0, repeats=1)
        tracer.clear()
        assert phase_stats(tracer.spans) == {}

    def test_implicit_repeat_flushed_by_stats(self):
        # no ``total`` span: the whole list is one repeat
        spans = [span("force", 0.0, 2.0, phase="force")]
        assert phase_stats(spans)["force"].median_s == 2.0

    def test_report_renders_all_phases(self):
        report = render_phase_table(phase_stats(HAND_BUILT))
        assert "density" in report
        assert "color-barrier" in report

    def test_empty_report(self):
        assert "no phases" in render_phase_table({})


class TestPhaseStats:
    def test_from_samples(self):
        s = PhaseStats.from_samples("x", [3.0, 1.0, 2.0])
        assert s.median_s == 2.0
        assert s.min_s == 1.0
        assert s.max_s == 3.0
        assert s.n_samples == 3


class TestNullPhase:
    def test_is_reusable_noop_context(self):
        with NULL_SPAN:
            pass
        with NULL_SPAN:
            pass


class TestProfilingObserver:
    """``color-barrier`` out of the spans :func:`trace_region` builds."""

    def test_charges_barrier_slack(self):
        tracer = Tracer()
        trace_region(
            tracer, (0.0, 2.0), [("density:color0", {"phase": "density"})],
            [([0.0, 1.0], "w0", 1), ([0.0, 1.5], "w1", 1)],
        )
        stats = phase_stats(tracer.spans)
        # slack = phase wall - longest task
        assert stats["color-barrier"].median_s == 0.5
        assert stats["density"].median_s == 2.0

    def test_unmatched_end_ignored(self):
        """A task that never started adds neither a task nor a wait."""
        tracer = Tracer()
        trace_region(tracer, (0.0, 1.0), [("x", {})], [None])
        assert [s.category for s in tracer.spans] == [CAT_REGION, CAT_PHASE]
        # no task ran, so the whole phase wall is barrier slack
        assert set(phase_stats(tracer.spans)) == {"color-barrier"}
        assert phase_stats(tracer.spans)["color-barrier"].median_s == 1.0

    def test_on_thread_backend(self):
        from repro.core.strategies.base import run_phase
        from repro.parallel.backends.threads import ThreadBackend

        tracer = Tracer()
        with ThreadBackend(2) as backend:
            run_phase(
                backend, tracer, [lambda: time.sleep(0.001), lambda: None],
                "density:color0", phase="density",
            )
        stats = phase_stats(tracer.spans)
        assert stats["color-barrier"].median_s >= 0.0
        assert stats["density"].median_s >= 0.001


class TestStrategyAttachment:
    def test_attach_and_detach(self):
        """A tracer is the strategy's own; the backend stays unobserved."""
        from repro.core.strategies import SDCStrategy
        from repro.parallel.backends.serial import SerialBackend

        backend, tracer = SerialBackend(), Tracer()
        strategy = SDCStrategy(dims=2, n_threads=2, backend=backend)
        strategy.attach_tracer(tracer)
        assert strategy._tracer is tracer and backend.observer is None
        strategy.detach_tracer()
        assert strategy._tracer is None

    def test_detach_preserves_foreign_observer(self):
        from repro.core.strategies import SDCStrategy
        from repro.parallel.backends.base import PhaseObserver
        from repro.parallel.backends.serial import SerialBackend

        backend = SerialBackend()
        strategy = SDCStrategy(dims=2, n_threads=2, backend=backend)
        foreign = PhaseObserver()
        backend.attach_observer(foreign)
        strategy.attach_tracer(Tracer())
        strategy.detach_tracer()
        assert backend.observer is foreign

    def test_profiled_compute_matches_unprofiled(self):
        from repro.core.strategies import SerialStrategy
        from repro.harness.cases import case_by_key
        from repro.md.neighbor.verlet import build_neighbor_list
        from repro.potentials import fe_potential

        atoms = case_by_key("tiny").build()
        pot = fe_potential()
        nlist = build_neighbor_list(
            atoms.positions, atoms.box, pot.cutoff, 0.3
        )
        plain = SerialStrategy().compute(pot, atoms, nlist)
        tracer = Tracer()
        profiled_strategy = SerialStrategy()
        profiled_strategy.attach_tracer(tracer)
        profiled = profiled_strategy.compute(pot, atoms, nlist)
        assert np.array_equal(plain.forces, profiled.forces)
        assert plain.potential_energy == profiled.potential_energy
        # the serial path gets its phase spans from the same call
        assert set(phase_stats(tracer.spans)) == {"density", "embedding", "force"}

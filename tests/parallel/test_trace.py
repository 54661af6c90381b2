"""The cycle model's runs on the span timeline (``trace_result``): a task
per model thread and phase, barrier waits for the idle time, phases back
to back from the fork-join prologue to the run's total, and the same
phase rows as a measured evaluation."""

import pytest

from repro.obs.tracer import CAT_BARRIER, CAT_PHASE, CAT_REGION, CAT_TASK, Tracer
from repro.parallel.machine import MachineConfig, paper_machine
from repro.parallel.plan import SimPlan, uniform_phase
from repro.parallel.sim_exec import simulate, trace_result


def model_spans(result):
    tracer = Tracer()
    trace_result(tracer, result)
    return tracer.spans


def of(spans, category):
    return [s for s in spans if s.category == category]


def in_phase(spans, category, index):
    return [s for s in of(spans, category) if s.args["phase"] == index]


def busy_share(result):
    """The reference: busy thread-cycles over ``n_threads`` times the run."""
    busy = sum(float(p.busy_cycles_per_thread.sum()) for p in result.phase_results)
    return busy / (result.total_cycles * result.n_threads)


def span_utilization(spans):
    """Task time over the region's wall times its tracks, from spans alone."""
    tasks = of(spans, CAT_TASK)
    wall = sum(s.duration_s for s in of(spans, CAT_PHASE))
    return sum(s.duration_s for s in tasks) / (wall * len({s.track for s in tasks}))


def two_phase_result(first, second):
    """Two uniform phases, each ``(name, tasks, cycles per task)``, on 4
    threads."""
    plan = SimPlan(
        name="demo",
        phases=[
            uniform_phase(first[0], first[1], compute_per_task=first[2]),
            uniform_phase(second[0], second[1], compute_per_task=second[2]),
        ],
        n_parallel_regions=1,
    )
    return simulate(plan, MachineConfig(), 4)


#: the plans the model's timeline is checked on: one short phase that
#: idles half the threads after a long one, and the reverse
SHORT_TAIL = (("a", 6, 100.0), ("b", 2, 50.0))
LONG_TAIL = (("alpha", 8, 100.0), ("beta", 2, 400.0))


@pytest.fixture()
def results():
    return [two_phase_result(*SHORT_TAIL), two_phase_result(*LONG_TAIL)]


@pytest.fixture()
def long_tail():
    return two_phase_result(*LONG_TAIL)


def test_timeline_covers_all_threads_and_phases(results):
    for result in results:
        tasks = of(model_spans(result), CAT_TASK)
        cells = {(s.track, s.args["phase"]) for s in tasks}
        assert len(tasks) == len(cells) == 4 * 2
        assert {phase for _, phase in cells} == {0, 1}


def test_every_model_thread_is_one_track(long_tail):
    spans = model_spans(long_tail)
    per_thread = of(spans, CAT_TASK) + of(spans, CAT_BARRIER)
    assert {s.track for s in per_thread} == {f"model-thread-{k}" for k in range(4)}


def test_segments_synchronized_at_barriers(results):
    # each phase's threads start together and leave its barrier together
    for result in results:
        spans = model_spans(result)
        for phase in of(spans, CAT_PHASE):
            index = phase.args["phase"]
            tasks = in_phase(spans, CAT_TASK, index)
            waits = {w.track: w for w in in_phase(spans, CAT_BARRIER, index)}
            assert len({round(s.start_s, 15) for s in tasks}) == 1
            for task in tasks:
                end = waits[task.track].end_s if task.track in waits else task.end_s
                assert end == pytest.approx(phase.end_s, rel=1e-12)


def test_segment_end_is_start_plus_busy_plus_idle(results):
    # a thread's barrier wait starts where its task ends
    for result in results:
        spans = model_spans(result)
        tasks = {(s.track, s.args["phase"]): s for s in of(spans, CAT_TASK)}
        for wait in of(spans, CAT_BARRIER):
            task = tasks[wait.track, wait.args["phase"]]
            assert wait.start_s == pytest.approx(task.end_s, rel=1e-12)
            assert wait.end_s == pytest.approx(
                task.start_s + task.duration_s + wait.duration_s, rel=1e-12
            )


def test_busy_plus_idle_fills_the_phase_span(results):
    # every thread occupies the full synchronized span of its phase
    for result in results:
        spans = model_spans(result)
        seconds = result.machine.cycles_to_seconds
        for index, phase in enumerate(result.phase_results):
            idle = {w.track: w.duration_s for w in in_phase(spans, CAT_BARRIER, index)}
            for task in in_phase(spans, CAT_TASK, index):
                assert task.duration_s + idle.get(task.track, 0.0) == pytest.approx(
                    seconds(phase.total_cycles), rel=1e-12
                )


def test_idle_time_nonnegative(results):
    # the barrier waits are the idle time, and none is negative
    for result in results:
        spans = model_spans(result)
        seconds = result.machine.cycles_to_seconds
        waits = of(spans, CAT_BARRIER)
        assert waits and all(w.duration_s >= 0.0 for w in waits)
        for index, phase in enumerate(result.phase_results):
            idle = sorted(
                seconds(phase.total_cycles - float(b))
                for b in phase.busy_cycles_per_thread
                if phase.total_cycles > b
            )
            got = sorted(w.duration_s for w in in_phase(spans, CAT_BARRIER, index))
            assert got == pytest.approx(idle, rel=1e-9)


def test_imbalanced_phase_has_idle(results):
    # the second phase runs 2 tasks on 4 threads: two threads fully idle
    for result in results:
        tasks = in_phase(model_spans(result), CAT_TASK, 1)
        assert sum(1 for s in tasks if s.duration_s == 0.0) == 2


def test_idle_threads_wait_out_the_short_phase(long_tail):
    # the two threads with no task in "beta" wait for the whole phase
    spans = model_spans(long_tail)
    beta = long_tail.machine.cycles_to_seconds(long_tail.phase_results[1].total_cycles)
    idle = {s.track for s in in_phase(spans, CAT_TASK, 1) if s.duration_s == 0.0}
    waits = {w.track: w.duration_s for w in in_phase(spans, CAT_BARRIER, 1)}
    assert len(idle) == 2
    for track in idle:
        assert waits[track] == pytest.approx(beta, rel=1e-12)


def test_timeline_starts_at_fork_join(results):
    # the threads start after the fork-join prologue, not at 0
    for result in results:
        spans = model_spans(result)
        assert result.fork_join_cycles > 0.0
        assert of(spans, CAT_PHASE)[0].start_s == 0.0
        first = min(s.start_s for s in of(spans, CAT_TASK))
        assert first == pytest.approx(
            result.machine.cycles_to_seconds(result.fork_join_cycles), rel=1e-12
        )


def test_phases_are_contiguous_across_barriers(results):
    # phase k+1 starts where phase k's barrier released (no gaps, no
    # overlap) and the last barrier lands on the run's total time
    for result in results:
        phases = of(model_spans(result), CAT_PHASE)
        assert [s.name.split("/")[0] for s in phases] == [
            p.name for p in result.phase_results
        ]
        for prev, nxt in zip(phases, phases[1:]):
            assert nxt.start_s == pytest.approx(prev.end_s, rel=1e-12)
        assert phases[-1].end_s == pytest.approx(result.seconds, rel=1e-12)


def test_busy_matches_simulated_per_thread_cycles(results):
    for result in results:
        spans = model_spans(result)
        seconds = result.machine.cycles_to_seconds
        for index, phase in enumerate(result.phase_results):
            busy = {s.track: s.duration_s for s in in_phase(spans, CAT_TASK, index)}
            for k, cycles in enumerate(phase.busy_cycles_per_thread):
                assert busy[f"model-thread-{k}"] == pytest.approx(
                    seconds(float(cycles)), rel=1e-12, abs=1e-18
                )


def test_steps_are_labelled_and_tagged_by_phase():
    plan = SimPlan(
        name="sdc-like",
        phases=[
            uniform_phase("density:color0", 2, compute_per_task=10.0),
            uniform_phase("embedding", 2, compute_per_task=5.0),
            uniform_phase("force:color0", 2, compute_per_task=20.0),
        ],
    )
    regions = of(model_spans(simulate(plan, MachineConfig(), 2)), CAT_REGION)
    assert [(s.name, s.args["phase"]) for s in regions] == [
        ("density:color0", "density"),
        ("embedding", "embedding"),
        ("force:color0", "force"),
    ]


def test_empty_plan_yields_empty_timeline():
    assert model_spans(simulate(SimPlan(name="empty"), MachineConfig(), 2)) == []


def test_utilization_in_unit_interval(results):
    # the span utilisation is the simulated busy share
    for result in results:
        got = span_utilization(model_spans(result))
        assert 0.0 < got <= 1.0
        assert got == pytest.approx(busy_share(result), rel=0.0, abs=1e-12)


def test_utilization_perfect_for_balanced_serial():
    machine = MachineConfig(
        fork_join_base_cycles=0, fork_join_per_thread_cycles=0,
        phase_base_cycles=0, phase_per_thread_cycles=0,
    )
    plan = SimPlan(name="s", phases=[uniform_phase("w", 4, compute_per_task=10.0)])
    result = simulate(plan, machine, 4)
    assert span_utilization(model_spans(result)) == pytest.approx(1.0, abs=1e-12)


def test_model_and_measured_spans_reduce_to_the_same_phases(
    potential, sdc_atoms, sdc_nlist
):
    """``phase_stats`` reads the model's run of a 2-D SDC plan and one
    traced evaluation of that plan on two threads into the same rows; the
    measured one adds only the plan cache lookup (``neighbor-rebuild``),
    which the model does not time."""
    from repro.core.strategies.sdc import SDCStrategy
    from repro.parallel.backends import ThreadBackend
    from repro.parallel.workload import measure_workload
    from repro.utils.profiler import phase_stats

    measured = Tracer()
    with ThreadBackend(2) as backend:
        strategy = SDCStrategy(dims=2, n_threads=2, backend=backend)
        strategy.attach_tracer(measured)
        strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
    stats = measure_workload(strategy.pair_partition, strategy.schedule, sdc_nlist)
    machine = paper_machine()
    predicted = model_spans(simulate(strategy.plan(stats, machine, 2), machine, 2))
    kernel_phases = {"density", "embedding", "force", "color-barrier"}
    assert set(phase_stats(predicted)) == kernel_phases
    assert set(phase_stats(measured.spans)) - {"neighbor-rebuild"} == kernel_phases

"""Command-line interface: ``python -m repro <command>``, see ``--help``.
Exit codes: 0 ok; 1 failed check, gated regression or empty sweep; 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.harness.runner import ExperimentRunner
    from repro.harness.table1 import reproduce_table1

    result = reproduce_table1(ExperimentRunner())
    print(result.render())
    print(
        f"\nmean relative error vs paper: "
        f"{result.mean_relative_error() * 100:.1f}% "
        f"(blank pattern matches: {result.blank_pattern_matches()})"
    )
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    from repro.harness.fig9 import reproduce_all_panels
    from repro.harness.runner import ExperimentRunner

    for panel in reproduce_all_panels(ExperimentRunner()):
        print(panel.render())
        print()
    return 0


def _cmd_reordering(args: argparse.Namespace) -> int:
    from repro.harness.reordering import reproduce_reordering
    from repro.harness.runner import ExperimentRunner

    print(reproduce_reordering(ExperimentRunner()).render())
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from repro.harness.census import census, render_census

    print(render_census(census()))
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    import repro

    atoms, report = repro.quickstart(
        n_cells=args.cells, n_steps=args.steps
    )
    energies = report.energies()
    drift = abs(energies[-1] - energies[0]) / abs(energies[0])
    print(
        f"{atoms.n_atoms} atoms, {report.n_steps} steps through SDC: "
        f"relative energy drift {drift:.2e}"
    )
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    from repro.harness.cases import case_by_key
    from repro.parallel.cluster import ClusterConfig, hybrid_scaling_study
    from repro.parallel.machine import paper_machine

    case = case_by_key(args.case)
    cluster = ClusterConfig(machine=paper_machine())
    results = hybrid_scaling_study(
        case.n_atoms, case.box(), args.nodes, args.threads, cluster
    )
    print(f"{case.label}: {case.n_atoms:,} atoms, {args.threads} threads/node")
    print(" nodes   cores  speedup  efficiency")
    for r in results:
        print(
            f"  {r.n_nodes:4d} {r.total_cores:7d} {r.speedup:8.1f} "
            f"{r.speedup / r.total_cores:10.1%}"
        )
    return 0


def _cmd_racecheck(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.racecheck import run_racecheck

    strategies = args.strategy or ["sdc"]
    if args.all:
        from repro.core.strategies import STRATEGY_REGISTRY

        strategies = sorted(n for n in STRATEGY_REGISTRY if n != "serial")
    workloads = args.workload or ["uniform"]

    from repro.core.domain import DecompositionError

    reports = []
    for strategy in strategies:
        for workload in workloads:
            try:
                reports.append(
                    run_racecheck(
                        strategy=strategy,
                        workload=workload,
                        cells=args.cells,
                        backend=args.backend,
                        n_threads=args.threads,
                        dims=args.dims,
                        inject=args.inject,
                        seed=args.seed,
                        tolerance=args.tolerance,
                    )
                )
            except (ValueError, DecompositionError) as exc:
                print(f"error: {strategy} on {workload}: {exc}", file=sys.stderr)
                return 2

    header = (
        f"{'strategy':<22} {'workload':<9} {'backend':<9} "
        f"{'phases':>6} {'conflicts':>9} {'canary':>6} "
        f"{'max|dF|':>10}  verdict"
    )
    print(header)
    print("-" * len(header))
    for r in reports:
        verdict = "ok" if r.ok else "FAIL"
        if not r.lock_free and not r.race_free:
            verdict += " (overlaps expected: synchronized strategy)"
        force_err = (
            f"{r.max_force_error:.2e}" if r.max_force_error is not None else "-"
        )
        print(
            f"{r.strategy:<22} {r.workload:<9} {r.backend:<9} "
            f"{r.n_phases:>6} {r.n_conflicting_elements:>9} "
            f"{'ok' if r.canary_ok else 'FAIL':>6} {force_err:>10}  {verdict}"
        )
    failures = [r for r in reports if not r.ok]
    for r in failures:
        for c in r.conflicts[:5]:
            print(
                f"  conflict: strategy={r.strategy} phase={c.phase} "
                f"tasks=({c.task_a},{c.task_b}) index={c.index} "
                f"array={c.array}"
            )
    if args.json:
        payload = json.dumps([r.to_dict() for r in reports], indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json}")
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry, record_racecheck_metrics

        registry = MetricsRegistry()
        for r in reports:
            record_racecheck_metrics(registry, r)
        registry.write_jsonl(args.metrics)
        print(f"wrote {args.metrics}")
    print(
        f"\n{len(reports) - len(failures)}/{len(reports)} runs clean"
        + (f"; {len(failures)} FAILED" if failures else "")
    )
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import os
    from functools import partial

    from repro.harness.bench import (
        QUICK_BACKENDS,
        QUICK_CASES,
        QUICK_STRATEGIES,
        bench_forces,
        bench_payload,
        bench_steps,
        render_amortization_table,
        render_bench_table,
        reordering_records,
    )
    from repro.harness.cases import case_by_key
    from repro.harness.reordering import measure_reordering
    from repro.obs.rundir import artifact_path, write_payload
    from repro.obs.runlog import collect_run_meta

    if args.quick:
        cases = list(args.case or QUICK_CASES)
        strategies = list(args.strategy or QUICK_STRATEGIES)
        backends = list(args.backend or QUICK_BACKENDS)
        warmup = min(args.warmup, 1)
        repeats = min(args.repeats, 3)
        reorder_case = "tiny"
    else:
        from repro.harness.bench import (
            DEFAULT_BACKENDS,
            DEFAULT_CASES,
            DEFAULT_STRATEGIES,
        )

        cases = list(args.case or DEFAULT_CASES)
        strategies = list(args.strategy or DEFAULT_STRATEGIES)
        backends = list(args.backend or DEFAULT_BACKENDS)
        warmup = args.warmup
        repeats = args.repeats
        reorder_case = "demo"

    mode = (
        partial(bench_steps, steps=args.steps)
        if args.steps > 1
        else partial(bench_forces, warmup=warmup, repeats=repeats)
    )
    records = mode(
        cases=cases,
        strategies=strategies,
        backends=backends,
        n_workers=args.threads,
        on_skip=lambda msg: print(f"skip: {msg}", file=sys.stderr),
    )
    print(render_bench_table(records))
    if args.steps > 1:
        print()
        print(render_amortization_table(records))

    reorder = None
    if args.steps <= 1 and not args.skip_reordering:
        reorder = measure_reordering(
            case=case_by_key(reorder_case),
            n_threads=args.threads,
            warmup=warmup,
            repeats=repeats,
        )
        print()
        print(reorder.render())

    outputs = [("bench", [r.to_dict() for r in records])]
    if reorder is not None:
        outputs.append(("reordering", reordering_records(reorder)))
    os.makedirs(args.output_dir, exist_ok=True)
    meta = collect_run_meta(args.threads)
    print()
    for kind, rows in outputs:
        path = artifact_path(args.output_dir, kind)
        write_payload(path, bench_payload(rows, meta=meta))
        print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    import json

    from repro.obs.atomicio import atomic_write_text
    from repro.obs.regress import compare_payloads
    from repro.obs.rundir import read_artifact, resolve

    paths = [resolve(ref, "bench") for ref in (args.baseline, args.candidate)]
    try:
        baseline, candidate = [
            dict(zip(("meta", "records"), read_artifact(path, "bench")))
            for path in paths
        ]
        report = compare_payloads(baseline, candidate, *paths)
    # missing, unreadable, or a record without samples_s
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"baseline:  {paths[0]}")
    print(f"candidate: {paths[1]}")
    print()
    print(report.render())
    if args.json:
        atomic_write_text(
            args.json, json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    return report.exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.obs.report import (
        load_report_source,
        render_text_summary,
        write_report,
    )

    if not os.path.exists(args.source):
        print(f"error: no such source {args.source!r}", file=sys.stderr)
        return 2
    try:
        data = load_report_source(args.source)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_text_summary(data, top=args.top))
    write_report(args.output, data)
    print(f"\nwrote {args.output}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.harness.tracing import (
        DEFAULT_BACKENDS,
        DEFAULT_CASES,
        DEFAULT_STRATEGIES,
        run_trace,
    )

    report = run_trace(
        cases=list(args.case or DEFAULT_CASES),
        strategies=list(args.strategy or DEFAULT_STRATEGIES),
        backends=list(args.backend or DEFAULT_BACKENDS),
        n_workers=args.threads,
        steps=args.steps,
        output_dir=args.output_dir,
        on_skip=lambda msg: print(f"skip: {msg}", file=sys.stderr),
        sample_resources=args.sample_resources,
    )
    print(report.render_summary(top=args.top))
    if report.trace_path is not None:
        print(
            f"\nwrote {report.trace_path}"
            f"\nwrote {report.metrics_path}"
            f"\nwrote {report.runlog_path}"
            f"\nwrote {report.health_path}"
        )
        print(
            "open the trace at https://ui.perfetto.dev or chrome://tracing"
        )
    return 0 if report.runs else 1


def _parse_workers(text: str) -> list:
    """``"1,2,4"`` -> ``[1, 2, 4]`` (argparse type for ``--workers``)."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid worker list {text!r} (expected e.g. 1,2,4)"
        )
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"worker counts must be >= 1 (got {text!r})"
        )
    return values


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.harness.scaling import run_scale

    report = run_scale(
        case=args.case,
        strategy=args.strategy,
        backend=args.backend,
        workers=args.workers,
        steps=args.steps,
        output_dir=args.output_dir,
        sample_resources=args.sample_resources,
        sample_interval_s=args.sample_interval,
        on_skip=lambda msg: print(f"skip: {msg}", file=sys.stderr),
    )
    print(report.render_summary(top=args.top))
    if report.trace_path is not None:
        print(
            f"\nwrote {report.trace_path}"
            f"\nwrote {report.metrics_path}"
            f"\nwrote {report.scaling_path}"
            f"\nwrote {report.health_path}"
        )
        print(
            "open the trace at https://ui.perfetto.dev or chrome://tracing"
        )
    return 0 if report.points else 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.harness.doctor import run_doctor

    report = run_doctor(
        case=args.case,
        steps=args.steps,
        n_workers=args.workers,
        inject=args.inject,
        output_dir=args.output_dir,
    )
    print(report.render())
    if report.health_path is not None:
        print(f"\nwrote {report.health_path}")
    return report.exit_code


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.obs.recorder import health_digest
    from repro.obs.rundir import read_artifact, resolve

    path = resolve(args.source, "health")
    try:
        _, records = read_artifact(path, "health")
    except FileNotFoundError:
        print(f"error: no health.jsonl at {path!r}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    digest = health_digest(records)
    print(
        f"{path}: {digest['n_events']} events in ring "
        f"({digest['n_recorded']} recorded, "
        f"{digest['n_dropped']} evicted)"
    )
    for key, n in digest["counts"].items():
        print(f"  {key:<32} {n}")
    notable = digest["notable"]
    if notable:
        print(f"\n{len(notable)} warning+ events:")
        for e in notable[-args.top:]:
            print(
                f"  [{e['severity']}] {e['category']}/{e['event']} "
                f"{e['detail']}"
            )
    else:
        print("\nno warning-or-worse events recorded")
    if args.strict and notable:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SDC-EAM paper reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="reproduce Table I").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("fig9", help="reproduce Fig. 9").set_defaults(func=_cmd_fig9)
    sub.add_parser(
        "reordering", help="reproduce the Section II.D gains"
    ).set_defaults(func=_cmd_reordering)
    sub.add_parser(
        "census", help="Section II.B subdomain census"
    ).set_defaults(func=_cmd_census)

    quick = sub.add_parser("quickstart", help="run a short SDC MD trajectory")
    quick.add_argument("--cells", type=int, default=6)
    quick.add_argument("--steps", type=int, default=20)
    quick.set_defaults(func=_cmd_quickstart)

    hybrid = sub.add_parser(
        "hybrid", help="future-work hybrid MPI+OpenMP scaling model"
    )
    hybrid.add_argument("--case", default="large4")
    hybrid.add_argument("--threads", type=int, default=16)
    hybrid.add_argument(
        "--nodes", type=int, nargs="+", default=[1, 2, 4, 8]
    )
    hybrid.set_defaults(func=_cmd_hybrid)

    race = sub.add_parser(
        "racecheck",
        help="dynamic race detection + strategy equivalence sweep",
    )
    race.add_argument(
        "--strategy",
        action="append",
        help="strategy to check (repeatable; default sdc)",
    )
    race.add_argument(
        "--all",
        action="store_true",
        help="sweep every registered strategy except serial",
    )
    race.add_argument(
        "--workload",
        action="append",
        choices=["uniform", "void", "slab"],
        help="workload to check (repeatable; default uniform)",
    )
    race.add_argument("--cells", type=int, default=6)
    race.add_argument(
        "--backend",
        choices=["serial", "threads", "processes"],
        default="serial",
    )
    race.add_argument("--threads", type=int, default=4)
    race.add_argument("--dims", type=int, default=2, choices=[1, 2, 3])
    race.add_argument(
        "--inject",
        choices=["none", "merge-colors", "drop-barrier", "small-subdomains"],
        default="none",
        help="corrupt the SDC schedule and let the detector catch it",
    )
    race.add_argument("--seed", type=int, default=0)
    race.add_argument("--tolerance", type=float, default=1e-8)
    race.add_argument(
        "--json", help="write the JSON report here ('-' for stdout)"
    )
    race.add_argument(
        "--metrics",
        help="write conflict counts as a metrics.jsonl stream here "
        "(same schema as `repro trace`)",
    )
    race.set_defaults(func=_cmd_racecheck)

    bench = sub.add_parser(
        "bench",
        help="real wall-clock strategy x backend sweep (per-phase medians)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke configuration: tiny case, {serial,sdc-2d} x "
        "{serial,threads}, <=3 repeats",
    )
    bench.add_argument(
        "--case",
        action="append",
        help="case key to sweep (repeatable; default depends on --quick)",
    )
    bench.add_argument(
        "--strategy",
        action="append",
        help="strategy key (serial, sdc-1d/2d/3d, critical-section, "
        "array-privatization, redundant-computation, atomic, localwrite)",
    )
    bench.add_argument(
        "--backend",
        action="append",
        choices=["serial", "threads", "processes", "sharded"],
        help="backend to sweep (repeatable)",
    )
    bench.add_argument("--threads", type=int, default=2)
    bench.add_argument("--warmup", type=int, default=1)
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument(
        "--steps",
        type=int,
        default=1,
        help="repeated-compute mode: call compute N times per cell on one "
        "calculator and report first_step vs amortized per-step records "
        "(exercises the persistent process engine's steady state; skips "
        "the reordering measurement)",
    )
    bench.add_argument(
        "--output-dir",
        default=".",
        help="directory for BENCH_forces.json / BENCH_reordering.json",
    )
    bench.add_argument(
        "--skip-reordering",
        action="store_true",
        help="skip the Section II.D reordering measurement (faster "
        "perf-gate smoke)",
    )
    bench.set_defaults(func=_cmd_bench)

    trace = sub.add_parser(
        "trace",
        help="traced MD runs: Perfetto trace.json + metrics.jsonl + "
        "load-imbalance summary",
    )
    trace.add_argument(
        "--case",
        action="append",
        help="case key to trace (repeatable; default tiny)",
    )
    trace.add_argument(
        "--strategy",
        action="append",
        help="strategy key (sdc, sdc-1d/2d/3d, critical-section, "
        "array-privatization, redundant-computation, atomic, localwrite; "
        "repeatable; default sdc)",
    )
    trace.add_argument(
        "--backend",
        action="append",
        choices=["serial", "threads", "processes", "sharded"],
        help="backend to trace (repeatable; default threads)",
    )
    trace.add_argument("--threads", type=int, default=2)
    trace.add_argument("--steps", type=int, default=2)
    trace.add_argument(
        "--top", type=int, default=10, help="summary rows to print"
    )
    trace.add_argument(
        "--output-dir",
        default="trace-out",
        help="directory for trace.json / metrics.jsonl / run.jsonl",
    )
    trace.add_argument(
        "--sample-resources",
        action="store_true",
        help="co-run the /proc resource sampler: CPU/RSS/context-switch/"
        "shm counter tracks for the parent and every pool worker merge "
        "into trace.json",
    )
    trace.set_defaults(func=_cmd_trace)

    scale = sub.add_parser(
        "scale",
        help="worker-count sweep: speedup/efficiency/Karp-Flatt + loss "
        "attribution (writes scaling.json)",
    )
    scale.add_argument(
        "--case", default="small", help="case key to sweep (default small)"
    )
    scale.add_argument(
        "--strategy",
        default="sdc",
        help="strategy key for the swept cell (default sdc)",
    )
    scale.add_argument(
        "--backend",
        choices=["serial", "threads", "processes", "sharded"],
        default="processes",
        help="backend to sweep (default processes, so per-worker "
        "resource tracks appear in the trace)",
    )
    scale.add_argument(
        "--workers",
        type=_parse_workers,
        default=[1, 2],
        help="comma-separated worker counts to sweep (default 1,2; "
        "include 1 so T(1) is measured rather than estimated)",
    )
    scale.add_argument("--steps", type=int, default=3)
    scale.add_argument(
        "--output-dir",
        default="scale-out",
        help="directory for trace.json / metrics.jsonl / scaling.json "
        "/ health.jsonl",
    )
    scale.add_argument(
        "--no-sample-resources",
        dest="sample_resources",
        action="store_false",
        help="disable the /proc resource sampler (loss attribution then "
        "has no resource-pressure component)",
    )
    scale.add_argument(
        "--sample-interval",
        type=float,
        default=0.05,
        help="resource-sampler period in seconds (default 0.05)",
    )
    scale.add_argument(
        "--top", type=int, default=10, help="summary rows to print"
    )
    scale.set_defaults(func=_cmd_scale, sample_resources=True)

    comp = sub.add_parser(
        "compare",
        help="judge a candidate bench run against a baseline, cell by "
        "cell (exit 1 on a total-phase regression, 2 on unreadable input)",
    )
    comp.add_argument(
        "baseline",
        help="baseline BENCH_forces.json or a directory containing it",
    )
    comp.add_argument(
        "candidate",
        help="candidate BENCH_forces.json or a directory containing it",
    )
    comp.add_argument(
        "--json", help="write the verdict report as JSON here"
    )
    comp.set_defaults(func=_cmd_compare)

    rep = sub.add_parser(
        "report",
        help="render the self-contained HTML performance dashboard",
    )
    rep.add_argument(
        "source",
        help="run directory (BENCH_*.json / scaling.json / "
        "metrics.jsonl / run.jsonl / health.jsonl)",
    )
    rep.add_argument(
        "-o", "--output", default="report.html", help="HTML output path"
    )
    rep.add_argument(
        "--top", type=int, default=8, help="rows per terminal summary section"
    )
    rep.set_defaults(func=_cmd_report)

    doctor = sub.add_parser(
        "doctor",
        help="self-check workload + diagnosis table (exit 1 on any "
        "critical finding)",
    )
    doctor.add_argument(
        "--case", default="tiny", help="case key for the check workload"
    )
    doctor.add_argument("--steps", type=int, default=3)
    doctor.add_argument(
        "--workers",
        type=int,
        default=2,
        help="process-pool size for the engine check",
    )
    doctor.add_argument(
        "--inject",
        choices=["none", "worker-kill"],
        default="none",
        help="deliberately break one layer to prove the failure is "
        "visible (doctor must then exit 1)",
    )
    doctor.add_argument(
        "--output-dir",
        default=None,
        help="dump health.jsonl (the flight-recorder ring) here",
    )
    doctor.set_defaults(func=_cmd_doctor)

    health = sub.add_parser(
        "health",
        help="summarize a run's health.jsonl (exit 2 when missing)",
    )
    health.add_argument(
        "source",
        help="run directory containing health.jsonl, or the file itself",
    )
    health.add_argument(
        "--top", type=int, default=10, help="notable events to print"
    )
    health.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any warning-or-worse event was recorded",
    )
    health.set_defaults(func=_cmd_health)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

#!/usr/bin/env python3
"""MD-step benchmark: six ``Simulation.run`` workloads, timed from outside.

Two ways to call it:

* the whole table (what a person runs)::

      python3 benchmarks/step/run.py [--seed N] [--repeats K]
                                     [--workload NAME] [--quick] [--out FILE]

  every workload (or the one named) for a fixed number of timed steps,
  ``--repeats`` fresh processes each, round-robin across workloads, plus
  one traced process per workload; prints every metric by name with its
  unit and writes raw samples and Chrome traces under ``out/``;

* one measured run (what the benchmark driver runs)::

      python3 benchmarks/step/run.py --workload NAME --seed N
                                     --seconds S --trace 0|1

  the timed steps share a budget of S seconds; the last line of stdout
  is one JSON object with the end-to-end (``--trace 0``) or per-layer
  (``--trace 1``) metrics of that workload.

Exit status: 0 clean, 1 a step raised or a check failed, 2 the program
under test is not there, 3 a measurement process died.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import (  # noqa: E402
    TIMED_STEPS,
    TIMED_STEPS_QUICK,
    WORKLOADS,
    n_workers,
)

#: fresh processes behind one driver run; set-up is paid in each, so
#: ``setup_s`` is a median of this many set-ups
DRIVER_REPEATS = 3
CHILD_TIMEOUT_S = 170
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
FINAL_ENERGY_RTOL = 1e-9

Cell = Tuple[str, bool]  # (workload name, traced)


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() or None


def host_meta() -> dict:
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    if load1 > 0.5 * nproc:
        print(
            f"warning: load average {load1:.2f} exceeds half of {nproc} CPUs; "
            "timings will be noisy",
            file=sys.stderr,
        )
    return {
        "nproc": nproc,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": load1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "thread_env": THREAD_ENV,
        "workers": n_workers(),
    }


def run_child(cell: Cell, seed: int, budget: List[str], quick: bool, out_dir: Path) -> dict:
    """One fresh measurement process; returns the dict it printed."""
    name, traced = cell
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed), *budget,
    ]
    if quick:
        command.append("--quick")
    if traced:
        command += ["--traced", "--trace-out", str(out_dir / f"trace-{name}.json")]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: measurement process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(3)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"{name}: measurement process exited {done.returncode}", file=sys.stderr)
        sys.exit(3)
    return json.loads(done.stdout.strip().splitlines()[-1])


def failure_counts(children: List[dict]) -> Tuple[int, int]:
    """(attempted, failed): timed steps plus checks, over ``children``."""
    attempted = failed = 0
    for child in children:
        attempted += len(child["wall_ms"]) + child["steps_failed"] + len(child["checks"])
        failed += child["steps_failed"] + sum(not c["ok"] for c in child["checks"])
        for c in child["checks"]:
            if not c["ok"]:
                print(
                    f"{child['workload']}: check {c['name']} failed: "
                    f"{c['value']:.3e} > {c['limit']:.3e}",
                    file=sys.stderr,
                )
    return attempted, failed


def final_energy_checks(name: str, results: Dict[Cell, List[dict]]) -> List[dict]:
    """Fixed-step runs only: the parallel trajectory ends at the serial energy."""
    serial = results.get(("serial-steady", False), [])
    checks = []
    for own, base in zip(results[(name, False)], serial):
        if len(own["wall_ms"]) == len(base["wall_ms"]):
            error = abs(own["final_energy"] - base["final_energy"]) / abs(base["final_energy"])
            checks.append(
                metrics.check("final-energy-equals-serial-steady", error, FINAL_ENERGY_RTOL)
            )
    return checks


def with_units(values: Dict[str, object], declared: List[dict]) -> Dict[str, dict]:
    """Attach declared units; the metric names must match the declaration."""
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}"
        )
    out = {}
    for d in declared:
        value = values[d["name"]]
        entry = dict(value) if isinstance(value, dict) else {"value": value}
        entry["unit"] = d["unit"]
        out[d["name"]] = entry
    return out


def summarize(name: str, results: Dict[Cell, List[dict]], declaration: dict) -> dict:
    """Everything reported for one workload, from the children that ran."""
    spec = WORKLOADS[name]
    untraced = results[(name, False)]
    children = list(untraced) + results.get((name, True), [])
    attempted, failed = failure_counts(children)
    summary = {
        "end_to_end": with_units(metrics.end_to_end(untraced), declaration["end_to_end"]),
        "samples": [
            {"wall_ms": c["wall_ms"], "rebuilt": c["rebuilt"], "setup": c["setup"]}
            for c in untraced
        ],
    }
    if spec.serial_twin:
        extra = final_energy_checks(name, results)
        attempted += len(extra)
        failed += sum(not c["ok"] for c in extra)
    if (name, True) in results:
        base = results.get(("serial-steady", True)) if spec.observed else None
        summary["per_layer"] = with_units(
            metrics.per_layer(
                results[(name, True)][0],
                untraced,
                results[(spec.reference, False)],
                base[0] if base else None,
            ),
            declaration["per_layer"],
        )
    summary["ops_attempted"] = attempted
    summary["ops_failed"] = failed
    return summary


def print_table(name: str, summary: dict) -> None:
    print(f"\n== {name}  (ops_attempted={summary['ops_attempted']} "
          f"ops_failed={summary['ops_failed']})")
    for metric, entry in summary["end_to_end"].items():
        repeats = " ".join(f"{v:.6g}" for v in entry["repeats"])
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']:<6} [{repeats}]")
    for metric, entry in summary.get("per_layer", {}).items():
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="432 atoms, 20 timed steps, 1 repeat")
    parser.add_argument("--out", help="result file (default: out/result.json)")
    parser.add_argument("--seconds", type=float,
                        help="driver run: time budget shared by the timed steps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver run: 0 end-to-end metrics, 1 per-layer metrics")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    declaration = load_declaration()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    host = host_meta()
    started = time.time()

    driver = args.seconds is not None
    if driver:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        spec = WORKLOADS[args.workload]
        if args.trace:
            cells = [(spec.name, False), (spec.name, True)]
            if spec.reference != spec.name:
                cells.append((spec.reference, False))
            if spec.observed:
                cells.append(("serial-steady", True))
        else:
            cells = [(spec.name, False)] * DRIVER_REPEATS
        budget = ["--seconds", repr(args.seconds / len(cells))]
        reported = [spec.name]
    else:
        repeats = 1 if args.quick else args.repeats
        reported = [args.workload] if args.workload else list(WORKLOADS)
        # references ride along so speedup and observer overhead have a base
        measured = list(dict.fromkeys(
            reported + [WORKLOADS[n].reference for n in reported]
        ))
        traced = list(dict.fromkeys(
            reported + ["serial-steady" for n in reported if WORKLOADS[n].observed]
        ))
        cells = [(n, False) for _ in range(repeats) for n in measured]
        cells += [(n, True) for n in traced]
        budget = ["--steps", str(TIMED_STEPS_QUICK if args.quick else TIMED_STEPS)]

    results: Dict[Cell, List[dict]] = {}
    for cell in cells:
        results.setdefault(cell, []).append(
            run_child(cell, args.seed, budget, args.quick, out_dir)
        )

    first = next(iter(results.values()))[0]
    host.update(
        numpy=first["numpy"], kernel_tier=first["kernel_tier"], numba=first["numba"]
    )
    summaries = {name: summarize(name, results, declaration) for name in reported}
    document = {
        "schema": "step-bench-v1",
        "host": host,
        "config": {
            "seed": args.seed,
            "quick": args.quick,
            "budget": budget,
            "repeats": max(len(v) for v in results.values()),
            "n_atoms": first["n_atoms"],
            "wall_s": time.time() - started,
        },
        "workloads": summaries,
    }
    if args.out:
        out_path = Path(args.out)
    elif driver:
        out_path = out_dir / f"run-{reported[0]}-trace{args.trace}.json"
    else:
        out_path = out_dir / "result.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)

    failed = sum(s["ops_failed"] for s in summaries.values())
    if driver:
        summary = summaries[reported[0]]
        chosen = summary["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": summary["ops_attempted"],
            "failed": summary["ops_failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in chosen.items()
            },
        }))
    else:
        print(f"host: {json.dumps(host)}")
        for name, summary in summaries.items():
            print_table(name, summary)
        print(f"\nresult file: {out_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

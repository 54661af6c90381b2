"""Named metrics from child results.  Names are fixed by BENCHMARK.json.

A *child* is the dict one ``child.py`` process printed.  End-to-end
metrics come from untraced children only; per-layer metrics come from
one traced child plus the untraced rates it is compared against.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence


def check(name: str, value: float, limit: float) -> dict:
    """One correctness check: passes when ``value <= limit``."""
    return {"name": name, "ok": bool(value <= limit), "value": value, "limit": limit}


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def whole_rebuild_cycles(rebuilt: Sequence[int]) -> tuple:
    """Slice of steps from just after the first rebuild to the last one.

    A rebuild costs several plain steps, so a rate over a window that
    cuts a cycle anywhere swings with how many rebuilds happened to fall
    inside; whole cycles do not.  Fewer than two rebuilds: every step.
    """
    at = [i for i, count in enumerate(rebuilt) if count]
    if len(at) < 2:
        return 0, len(rebuilt)
    return at[0] + 1, at[-1] + 1


def end_to_end_of_child(child: dict, raw: bool = False) -> Dict[str, float]:
    """One process's end-to-end metrics, at reference host speed.

    ``raw=True`` gives the same from the un-normalised walls, which the
    result file keeps beside each value.
    """
    prefix = "raw_" if raw else ""
    wall = child[prefix + "wall_ms"]
    first, last = whole_rebuild_cycles(child["rebuilt"])
    return {
        "atom_steps_per_s": child["n_atoms"]
        * (last - first)
        / (sum(wall[first:last]) * 1e-3),
        "step_ms_p50": percentile(wall, 50),
        "step_ms_p95": percentile(wall, 95),
        "setup_s": child["setup"][prefix + "setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def end_to_end(untraced: List[dict]) -> Dict[str, dict]:
    """Median of repeats, with the per-repeat values beside it."""
    per_child = [end_to_end_of_child(c) for c in untraced]
    raw = [end_to_end_of_child(c, raw=True) for c in untraced]
    return {
        name: {
            "value": statistics.median(c[name] for c in per_child),
            "repeats": [c[name] for c in per_child],
            "raw": statistics.median(c[name] for c in raw),
        }
        for name in per_child[0]
    }


def _rate(children: List[dict]) -> float:
    return statistics.median(
        end_to_end_of_child(c)["atom_steps_per_s"] for c in children
    )


def _step_self_ms(traced: dict) -> List[float]:
    """Per-step self time of the driver (Python dispatch, sampling, observers)."""
    self_ms = traced["self_ms"]
    return [a + b for a, b in zip(self_ms["step"], self_ms["compute_forces"])]


def per_layer(
    traced: dict,
    untraced: List[dict],
    reference_untraced: List[dict],
    serial_steady_traced: Optional[dict],
) -> Dict[str, float]:
    """Every per-layer metric of one workload.

    ``reference_untraced`` is the serial workload speedup is taken
    against; ``serial_steady_traced`` is given for the observed workload
    only and is the base of ``obs.overhead_pct``.  A layer that is not on
    the workload's path reads 0.
    """
    self_ms = traced["self_ms"]
    n_steps = len(traced["wall_ms"])
    zeros = [0.0] * n_steps

    def column(name: str) -> List[float]:
        return self_ms.get(name, zeros)

    step_total_ms = sum(sum(values) for values in self_ms.values())
    rebuilt = [count > 0 for count in traced["rebuilt"]]
    n_rebuilds = sum(traced["rebuilt"])

    def on_rebuild(values: List[float], flag: bool) -> List[float]:
        return [v for v, r in zip(values, rebuilt) if r is flag]

    sim_self = _step_self_ms(traced)
    neighbor = column("ensure_neighbor_list")
    compute = column("compute")
    first_half, second_half = column("first_half"), column("second_half")
    probes = traced["probes"]
    kernels_ms = probes["density_ms"] + probes["embedding_ms"] + probes["force_ms"]
    compute_p50 = percentile(compute, 50)
    steady_compute = on_rebuild(compute, False) or compute
    engine = traced["engine"]
    # the host-speed probes run inside the loop, single-threaded and
    # CPU-bound: take them out of both the CPU and the wall total
    cpu_s = traced["cpu_user_s"] + traced["cpu_sys_s"] - traced["host_probe_s"]
    busy_wall_s = traced["loop_s"] - traced["host_probe_s"]
    own_rate = _rate(untraced)
    traced_rate = end_to_end_of_child(traced)["atom_steps_per_s"]

    out = {
        "md.simulation.steps": n_steps,
        "md.simulation.step_self_ms_p50": percentile(sim_self, 50),
        "md.simulation.self_share": sum(sim_self) / step_total_ms,
        "md.simulation.tracing_overhead_pct": 100.0 * (1.0 - traced_rate / own_rate),
        "md.neighbor.rebuilds": n_rebuilds,
        "md.neighbor.steps_per_rebuild": n_steps / max(n_rebuilds, 1),
        "md.neighbor.rebuild_ms_p50": percentile(on_rebuild(neighbor, True), 50),
        "md.neighbor.check_ms_p50": percentile(on_rebuild(neighbor, False), 50),
        "md.neighbor.share": sum(neighbor) / step_total_ms,
        "md.neighbor.cells_ms": probes["cells_ms"],
        "md.neighbor.build_ms": probes["build_ms"],
        "md.neighbor.pairs": probes["pairs"],
        "md.neighbor.rebuild_over_force": probes["build_ms"] / kernels_ms,
        "potentials.eam.density_ms": probes["density_ms"],
        "potentials.eam.embedding_ms": probes["embedding_ms"],
        "potentials.eam.force_ms": probes["force_ms"],
        "potentials.eam.pairs_per_s": probes["pairs"] / (kernels_ms * 1e-3),
        "core.strategies.compute_ms_p50": compute_p50,
        "core.strategies.compute_ms_p95": percentile(compute, 95),
        "core.strategies.compute_share": sum(compute) / step_total_ms,
        "core.strategies.replan_ms_p50": (
            percentile(on_rebuild(compute, True), 50)
            - percentile(steady_compute, 50)
            if n_rebuilds
            else 0.0
        ),
        "core.strategies.overhead_ratio": compute_p50 / kernels_ms,
        "core.strategies.subdomains": engine["subdomains"],
        "core.strategies.colors": engine["colors"],
        "core.strategies.color_imbalance": engine["color_imbalance"],
        "parallel.backends.workers": engine["workers"],
        "parallel.backends.cpu_ms_per_step": 1e3
        * cpu_s
        / (n_steps * statistics.median(traced["host_slowdown"])),
        "parallel.backends.cpu_utilization": cpu_s
        / (busy_wall_s * engine["workers"]),
        "parallel.backends.sys_share": traced["cpu_sys_s"] / cpu_s,
        "parallel.backends.speedup_vs_serial": own_rate / _rate(reference_untraced),
        "parallel.backends.dispatch_us_p50": probes["dispatch_us"],
        "parallel.backends.rebuild_hook_ms_p50": percentile(
            on_rebuild(column("on_neighbor_rebuild"), True), 50
        ),
        "parallel.backends.arena_bytes": engine["arena_bytes"],
        "parallel.backends.halo_bytes_per_step": engine["halo_bytes_per_step"],
        "parallel.backends.halo_fraction": engine["halo_fraction"],
        "parallel.backends.migrated_atoms": engine["migrated_atoms"],
        "parallel.backends.worker_rss_mb": engine["worker_rss_mb"],
        "parallel.backends.pool_spawns": engine["pool_spawns"],
        "parallel.backends.epochs": engine["epochs"],
        "parallel.backends.restarts": engine["restarts"],
        "parallel.backends.worker_deaths": engine["worker_deaths"],
        "md.integrators.first_half_ms_p50": percentile(first_half, 50),
        "md.integrators.second_half_ms_p50": percentile(second_half, 50),
        "md.integrators.share": (sum(first_half) + sum(second_half)) / step_total_ms,
        "md.thermostats.apply_ms_p50": percentile(column("apply"), 50),
        "obs.spans_recorded": traced["observers"]["spans_recorded"],
        "obs.runlog_records": traced["observers"]["runlog_records"],
        "obs.health_events": traced["observers"]["health_events"],
        "obs.overhead_pct": 0.0,
        "setup.import_s": traced["setup"]["import_s"],
        "setup.case_build_s": traced["setup"]["case_build_s"],
        "setup.first_forces_s": traced["setup"]["first_forces_s"],
        "setup.warmup_s": traced["setup"]["warmup_s"],
    }
    if serial_steady_traced is not None:
        base = serial_steady_traced
        out["obs.overhead_pct"] = (
            100.0
            * (
                percentile(sim_self, 50)
                - percentile(_step_self_ms(base), 50)
            )
            / percentile(base["wall_ms"], 50)
        )
    return out

"""The six MD-step workloads and the constants every run shares.

Names here are fixed: BENCHMARK.json, README.md and later issues refer
to them verbatim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: bcc-Fe supercell edge in conventional cells: 16 -> 8,192 atoms (the
#: repo's ``demo`` case).  README "Why 8,192 atoms" has the measurement
#: behind the choice; ``--quick`` uses the 432-atom ``tiny`` case.
N_CELLS = 16
N_CELLS_QUICK = 6

PERTURBATION = 0.05
TIMESTEP_PS = 1.0e-3
WARMUP_STEPS = 20
TIMED_STEPS = 300
TIMED_STEPS_QUICK = 20

#: steady = cold crystal, default skin: a rebuild every ~35 steps.
#: rebuild = hot crystal, thin skin: the natural Verlet trigger fires
#: every ~4 steps, so the neighbour layer carries most of the wall.
STEADY = {"temperature": 50.0, "skin": 0.3}
REBUILD = {"temperature": 900.0, "skin": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str  # serial | threads | processes | sharded
    temperature: float
    skin: float
    #: workload whose untraced rate is the base of speedup_vs_serial
    reference: str
    #: thermostat + the repo's Tracer/RunLog/HealthMonitor are live
    observed: bool = False
    #: trajectory must equal the serial one (checked over the warm-up)
    serial_twin: bool = False

    @property
    def nve(self) -> bool:
        return not self.observed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serial-steady",
            "plain single-threaded baseline: EAM kernels are ~90% of a "
            "step, neighbour list ~12% of wall, backends unused",
            "serial", **STEADY, reference="serial-steady",
        ),
        Workload(
            "serial-rebuild",
            "hot crystal, thin skin: a Verlet rebuild every ~4 steps, so "
            "md.neighbor carries most of the wall; bypasses strategies "
            "and backends",
            "serial", **REBUILD, reference="serial-rebuild",
        ),
        Workload(
            "threads-steady",
            "the paper's headline configuration (2-D SDC on a thread "
            "pool): partition, colour schedule and barrier overhead; "
            "neighbour work as in serial-steady",
            "threads", **STEADY, reference="serial-steady", serial_twin=True,
        ),
        Workload(
            "processes-steady",
            "persistent fork pool with a /dev/shm arena synced every "
            "step: the engine a later refactor wants to fold away",
            "processes", **STEADY, reference="serial-steady",
            serial_twin=True,
        ),
        Workload(
            "sharded-rebuild",
            "two spatial shards under the rebuild parameters: halo "
            "exchange every step, migration and worker re-fork at "
            "every epoch; p50 is the steady step, p95 the epoch cost",
            "sharded", **REBUILD, reference="serial-rebuild",
        ),
        Workload(
            "nvt-observed",
            "serial-steady plus Berendsen thermostat, Tracer, RunLog and "
            "HealthMonitor: driver loop and all observer hooks live, so "
            "the 2% observer contract becomes a number",
            "serial", **STEADY, reference="serial-steady", observed=True,
        ),
    )
}


def n_workers() -> int:
    """Workers/shards for the parallel workloads: min(2, usable CPUs)."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable = os.cpu_count() or 1
    return min(2, usable)

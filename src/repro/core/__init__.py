"""The paper's contribution: Spatial Decomposition Coloring (SDC).

Subpackages/modules:

* :mod:`repro.core.domain` — subdomain grids with the ``> 2 r_c`` edge and
  even-count constraints (paper Section II.B step 1).
* :mod:`repro.core.coloring` — 2/4/8-color assignment and validation
  (step 2).
* :mod:`repro.core.partition` — atom and pair partitions in the paper's
  ``pstart``/``partindex`` layout.
* :mod:`repro.core.schedule` — color-phase schedules and OpenMP-style
  static thread assignment (step 3).
* :mod:`repro.core.sdc_plan` — steps 1-3 run once per neighbor list: the
  plan (pair list color-major, worker-major; one range per color and
  worker) that the thread, process and pair-potential executors share.
* :mod:`repro.core.strategies` — SDC plus the competing reduction
  strategies (CS, SAP, RC, atomic) the paper evaluates against.
* :mod:`repro.core.reorder` — the Section II.D data-reordering
  optimizations.
* :mod:`repro.core.conflict` — write-set instrumentation proving (or
  refuting) conflict-freedom of a schedule.
"""

from repro.core.coloring import Coloring, greedy_coloring, lattice_coloring
from repro.core.conflict import ConflictReport, check_schedule_conflicts
from repro.core.domain import DecompositionError, SubdomainGrid, decompose
from repro.core.partition import PairPartition, Partition, build_partition
from repro.core.reorder import (
    locality_score,
    regularize_csr,
    reorder_atoms_spatially,
    sort_neighbor_rows,
)
from repro.core.schedule import ColorSchedule, static_assignment

__all__ = [
    "Coloring",
    "greedy_coloring",
    "lattice_coloring",
    "ConflictReport",
    "check_schedule_conflicts",
    "DecompositionError",
    "SubdomainGrid",
    "decompose",
    "PairPartition",
    "Partition",
    "build_partition",
    "locality_score",
    "regularize_csr",
    "reorder_atoms_spatially",
    "sort_neighbor_rows",
    "ColorSchedule",
    "static_assignment",
]

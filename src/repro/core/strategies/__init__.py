"""Parallel reduction strategies for the EAM force computation.

One class per approach the paper evaluates (Section I's taxonomy +
Section III's measured methods):

* :class:`SerialStrategy` — the optimized serial baseline.
* :class:`SDCStrategy` — Spatial Decomposition Coloring (the paper's
  contribution), in 1-D, 2-D and 3-D variants.
* :class:`CriticalSectionStrategy` — CS: every conflicting scatter guarded
  by a critical section.
* :class:`ArrayPrivatizationStrategy` — SAP: per-thread private reduction
  arrays merged at the end.
* :class:`RedundantComputationStrategy` — RC: full neighbor lists, owned
  writes only, doubled pair work.
* :class:`AtomicStrategy` — hardware atomic updates (the taxonomy's
  lock-free cousin of CS; an extension beyond the measured set).

Every strategy computes *identical physics* (asserted by the test suite)
and exposes a :meth:`~ReductionStrategy.plan` describing its execution to
the simulated machine.  The three-region evaluation itself is written once
(:meth:`ReductionStrategy.compute`); SDC, CS, SAP, RC and atomic are each a
layout plus a write mode on it.
"""

from repro.core.strategies.atomic import AtomicStrategy
from repro.core.strategies.base import ReductionStrategy
from repro.core.strategies.localwrite import LocalWriteStrategy
from repro.core.strategies.pairwise import SDCPairCalculator, SerialPairCalculator
from repro.core.strategies.critical_section import CriticalSectionStrategy
from repro.core.strategies.privatization import ArrayPrivatizationStrategy
from repro.core.strategies.redundant import RedundantComputationStrategy
from repro.core.strategies.sdc import SDCStrategy
from repro.core.strategies.serial import SerialStrategy

STRATEGY_REGISTRY = {
    cls.name: cls
    for cls in (
        SerialStrategy,
        SDCStrategy,
        CriticalSectionStrategy,
        ArrayPrivatizationStrategy,
        RedundantComputationStrategy,
        AtomicStrategy,
        LocalWriteStrategy,
    )
}

__all__ = [
    "ReductionStrategy",
    "SerialStrategy",
    "SDCStrategy",
    "CriticalSectionStrategy",
    "ArrayPrivatizationStrategy",
    "RedundantComputationStrategy",
    "AtomicStrategy",
    "LocalWriteStrategy",
    "SDCPairCalculator",
    "SerialPairCalculator",
    "STRATEGY_REGISTRY",
]

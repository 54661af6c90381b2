"""Sample statistics and operation counting.

The paper measures "the running times of the calculations of the electron
densities and forces" with ``gettimeofday``; here the instrumented
regions are timed by :class:`repro.obs.tracer.Tracer` spans, and
:func:`median_iqr` summarizes the per-repeat samples reduced from them.
:class:`Counter` feeds the simulated machine's cost model with operation
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np


def median_iqr(samples: Sequence[float]) -> Tuple[float, float]:
    """Median and interquartile range of a sample set.

    The robust summary pair the wall-clock benchmarks report: the median
    ignores one-off scheduling hiccups, the IQR (Q3 - Q1) quantifies the
    run-to-run spread without being blown up by a single outlier.
    """
    if len(samples) == 0:
        raise ValueError("median_iqr needs at least one sample")
    arr = np.asarray(samples, dtype=np.float64)
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return float(med), float(q3 - q1)


@dataclass
class Counter:
    """Named integer counters for operation accounting.

    The strategies increment these (pair evaluations, scatter updates,
    barriers, critical entries...) and the cost model converts them into
    simulated cycles.
    """

    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        self.counts[name] = self.counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counts.get(name, 0)

    def merge(self, other: "Counter") -> None:
        """Add all of ``other``'s counts into this counter."""
        for name, value in other.counts.items():
            self.add(name, value)

    def reset(self) -> None:
        """Zero every counter."""
        self.counts.clear()

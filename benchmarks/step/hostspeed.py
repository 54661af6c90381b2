"""Host-speed probe: how fast is this machine *right now*?

The sandbox's CPU speed drifts by up to 2x over tens of seconds (shared
host; README "Host-speed normalisation" has the measurements), which no
amount of averaging inside a 10-second run removes.  So every timed step
is followed by one run of a fixed NumPy kernel that owes nothing to the
program under test, and each time is reported as

    wall * REFERENCE_PROBE_MS / probe wall measured beside it

i.e. the wall time the step would have taken had the host run at the
reference speed.  The kernel copies the MD step's instruction mix
(gather, arithmetic, ``bincount`` scatter over ~57k pairs into ~8k
atoms) because contention slows interpreter-bound and memory-bound code
by different factors; on a 400 s series this cut the quartile spread of
10-second medians from 8.8% to 1.1%.  Raw walls stay in the result files.

The two vCPUs drift independently, so a workload that computes on both
is probed on both (the probing thread hops there) and charged the slower
one: a parallel step waits for its slowest worker.  A serial workload is
probed where it runs.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: the probe's wall on the reference host when nothing else contends;
#: a constant, so normalised times stay comparable between runs
REFERENCE_PROBE_MS = 2.8

_ATOMS = 8_192
_PAIRS = 57_000


class HostSpeedProbe:
    """``cpus``: probe each of these by hopping there and report the
    slowest; None probes wherever the calling thread happens to run."""

    def __init__(self, cpus=None) -> None:
        rng = np.random.default_rng(0)
        self._i = rng.integers(0, _ATOMS, _PAIRS)
        self._j = rng.integers(0, _ATOMS, _PAIRS)
        self._positions = rng.random((_ATOMS, 3))
        self._cpus = cpus
        self._allowed = os.sched_getaffinity(0)

    def __call__(self) -> float:
        """One probe: the kernel's wall in ms (slowest of ``cpus``)."""
        if self._cpus is None:
            return self._kernel_ms()
        # pid 0 is the calling thread only: pool threads and workers
        # forked later keep the full mask, restored before returning
        try:
            slowest = 0.0
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                slowest = max(slowest, self._kernel_ms())
        finally:
            os.sched_setaffinity(0, self._allowed)
        return slowest

    def _kernel_ms(self) -> float:
        start = time.perf_counter()
        delta = self._positions[self._i] - self._positions[self._j]
        r = np.sqrt((delta * delta).sum(axis=1))
        np.bincount(self._i, weights=np.exp(-r), minlength=_ATOMS)
        return (time.perf_counter() - start) * 1e3

    def factor(self, calls: int = 3) -> float:
        """Host slowdown now: > 1 means slower than the reference."""
        return statistics.median(self() for _ in range(calls)) / REFERENCE_PROBE_MS


def step_factors(probes_ms) -> list:
    """Slowdown per step from ``n + 1`` probes taken around ``n`` steps.

    Step ``i`` ran between probes ``i`` and ``i + 1``; the median with
    the next probe keeps one interrupted probe from skewing a step.
    """
    return [
        statistics.median(probes_ms[i : i + 3]) / REFERENCE_PROBE_MS
        for i in range(len(probes_ms) - 1)
    ]

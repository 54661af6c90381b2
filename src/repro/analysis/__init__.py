"""Runtime analysis: dynamic race detection, differential strategy
equivalence.

The static conflict checker (:mod:`repro.core.conflict`) proves a planned
schedule safe *before* execution; this package verifies the same claims on
the executed program:

* :mod:`repro.analysis.shadow` — write-recording reduction arrays.
* :mod:`repro.analysis.racecheck` — the dynamic race detector and the
  ``repro racecheck`` engine.
* :mod:`repro.analysis.differential` — randomized cross-strategy
  equivalence harness.
"""

from repro.analysis.racecheck import (
    RaceCheckReport,
    RaceConflict,
    WriteRecorder,
    run_instrumented,
    run_racecheck,
    sweep_racecheck,
)
from repro.analysis.shadow import ShadowArray, TaskWriteLog, wrap_array

__all__ = [
    "RaceCheckReport",
    "RaceConflict",
    "WriteRecorder",
    "run_instrumented",
    "run_racecheck",
    "sweep_racecheck",
    "ShadowArray",
    "TaskWriteLog",
    "wrap_array",
]

"""The validation shared by every kernel tier.

A *kernel tier* is one implementation of the EAM hot-path primitives: the
NumPy tier (:class:`~repro.kernels.numpy_tier.NumpyKernelTier`) is the
reference, and the C tier (:mod:`repro.kernels.c_tier`) subclasses it and
compiles the hot entry points.  This module holds the checks and the pure
arithmetic both run, so the two raise the same errors for the same input.

Two contracts a compiled tier must honor:

* **Bounds are asserted at dispatch time, not inside the kernel.**  The
  NumPy scatters get index validation for free from ``np.add.at`` /
  ``np.bincount``; a compiled loop would silently corrupt memory instead.
  Tiers therefore check every index *before* entering compiled code and
  hand anything out of range to the NumPy code, so every tier raises the
  same ``IndexError`` for the same bad input.
* **Instrumented arrays bypass compiled code.**  The dynamic race detector
  hands strategies :class:`~repro.analysis.shadow.ShadowArray` reduction
  targets whose ``__setitem__``/ufunc hooks record write sets.  A compiled
  kernel writing through the raw buffer would make those writes invisible,
  so any target whose type is not exactly ``ndarray`` must run the NumPy
  code, and racecheck sees identical write sets whatever the tier.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: pairs closer than this (Å) are treated as overlapping atoms — any
#: spline/derivative evaluation there is extrapolated garbage and the
#: ``1/r`` force scaling amplifies it into astronomically large forces
MIN_PAIR_SEPARATION = 1e-6


def handover_arrays(n_pairs: int) -> List[np.ndarray]:
    """The four pair-sized arrays a density pass leaves ``(delta, r, phi',
    V')`` in for the force pass of the same pairs."""
    return [np.empty((n_pairs, 3))] + [np.empty(n_pairs) for _ in range(3)]


def check_scatter_indices(
    what: str, n_atoms: int, *index_arrays: np.ndarray
) -> None:
    """Raise ``IndexError`` if any scatter index falls outside ``[0, n)``.

    Compiled tiers call this once per entry point before handing the
    arrays to a kernel that performs no per-element checks.
    """
    for i_idx in index_arrays:
        if len(i_idx) == 0:
            continue
        lo = int(i_idx.min())
        hi = int(i_idx.max())
        if lo < 0 or hi >= n_atoms:
            bad = hi if hi >= n_atoms else lo
            raise IndexError(
                f"{what} got atom index {bad}, outside the valid "
                f"range [0, {n_atoms})"
            )


def check_owned_accumulator(
    what: str, accumulator: np.ndarray, n_atoms: int
) -> None:
    """Raise ``IndexError`` unless the accumulator covers all atom rows."""
    if len(accumulator) != n_atoms:
        raise IndexError(
            f"{what} needs a {n_atoms}-row accumulator, "
            f"got {len(accumulator)} rows"
        )


def overlap_error(
    r: np.ndarray,
    k: int,
    pair_ids: Optional[Tuple[np.ndarray, np.ndarray]],
    min_separation: float,
) -> ValueError:
    """The canonical overlapping-atoms diagnostic, identical across tiers.

    ``k`` is the slot of the closest pair; ``pair_ids`` (when given) is
    the aligned ``(i_idx, j_idx)`` slice used to name the atoms.
    """
    if pair_ids is not None:
        i_idx, j_idx = pair_ids
        where = f"atoms {int(i_idx[k])} and {int(j_idx[k])}"
    else:
        where = f"pair slot {k}"
    return ValueError(
        f"overlapping atoms: {where} are separated by {float(r[k]):.3e} Å "
        f"(< {min_separation:g} Å); the EAM force coefficient diverges "
        "as 1/r — fix the initial configuration or the timestep"
    )


def check_pair_separation(
    r: np.ndarray, pair_ids=None, min_separation: float = MIN_PAIR_SEPARATION
) -> None:
    """Raise :func:`overlap_error` naming the slice's closest pair when it
    is nearer than ``min_separation``."""
    if len(r) and float(np.min(r)) < min_separation:
        raise overlap_error(r, int(np.argmin(r)), pair_ids, min_separation)


def pair_force_coefficients(
    r: np.ndarray,
    dphi: np.ndarray,
    dv: np.ndarray,
    fp_i: np.ndarray,
    fp_j: np.ndarray,
    pair_ids: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    min_separation: float = MIN_PAIR_SEPARATION,
) -> np.ndarray:
    """Eq. 2's scalar coefficient ``-(V' + (F'_i + F'_j) phi') / r`` per
    pair, from derivatives already evaluated (by this slice's density
    pass, or by ``NumpyKernelTier.force_pair_coefficients``); raises on an
    overlapping pair before dividing."""
    check_pair_separation(r, pair_ids, min_separation)
    return -(dv + (fp_i + fp_j) * dphi) / r

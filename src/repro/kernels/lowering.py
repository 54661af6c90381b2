"""Lowering EAM potentials to the flat struct the C tier's kernels read.

A compiled pair loop cannot call ``potential.pair_terms(r)`` per pair, so a
potential is *lowered* once into a :class:`LoweredPotential`: a kind tag
plus the analytic constants or the spline tables its scalar evaluators in
``eam.c`` read.  The struct is the C ``eam_potential`` field for field.

Two kinds, the library's two potential families:

* ``KIND_JOHNSON`` — :class:`~repro.potentials.johnson_fe.JohnsonFePotential`
  constants.
* ``KIND_TABULATED`` — :class:`~repro.potentials.tables.TabulatedEAM`
  density, pair and embedding splines (knot values and second
  derivatives), the two radial tables on one shared grid.

Only those exact classes lower: a subclass may override any of the
functions the struct would bypass.  Anything else returns None, and the C
tier evaluates its terms through NumPy on the distances it computed.
Imports of the potential classes happen inside functions to keep
``repro.kernels`` import-safe from ``repro.potentials.eam``.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import Optional

import numpy as np

KIND_JOHNSON = 0
KIND_TABULATED = 1

#: the Johnson constants, in ``eam_potential`` field order
_JOHNSON_FIELDS = ("re", "fe", "beta", "D", "a", "r_switch", "r_cut", "F0", "rho_e")


class Spline(ctypes.Structure):
    """A :class:`~repro.potentials.spline.CubicSpline` as ``eam.c`` reads it."""

    _fields_ = [
        ("x_lo", ctypes.c_double),
        ("x_hi", ctypes.c_double),
        ("x0", ctypes.c_double),
        ("h", ctypes.c_double),
        ("n", ctypes.c_int64),
        ("y", ctypes.c_void_p),
        ("m", ctypes.c_void_p),
    ]


class LoweredPotential(ctypes.Structure):
    """A potential flattened for the C kernels (``eam_potential``).

    Also carries, as plain attributes, ``cutoff`` and the arrays its
    pointers address (kept alive as long as the struct).
    """

    _fields_ = [
        ("kind", ctypes.c_int64),
        *((name, ctypes.c_double) for name in _JOHNSON_FIELDS),
        ("density", Spline),
        ("pair", Spline),
        ("embed", Spline),
        ("rho_max", ctypes.c_double),
    ]


def _spline(spline, keep: list) -> Spline:
    """``CubicSpline.locate``'s inside bounds, precomputed the same way."""
    end = spline.x0 + (spline.n - 1) * spline.h
    tol = 8.0 * np.finfo(np.float64).eps * max(abs(spline.x0), abs(end), 1.0)
    y = np.ascontiguousarray(spline.y, dtype=np.float64)
    m = np.ascontiguousarray(spline.m, dtype=np.float64)
    keep.extend((y, m))
    return Spline(
        spline.x0 - tol, end + tol, spline.x0, spline.h, spline.n,
        y.ctypes.data, m.ctypes.data,
    )


def _lower_uncached(potential) -> Optional[LoweredPotential]:
    from repro.potentials.johnson_fe import JohnsonFePotential
    from repro.potentials.tables import TabulatedEAM

    if type(potential) is JohnsonFePotential:
        lowered = LoweredPotential(
            kind=KIND_JOHNSON,
            **{name: float(getattr(potential, name)) for name in _JOHNSON_FIELDS},
        )
        lowered.keep = []
    elif type(potential) is TabulatedEAM:
        dens, pair = potential._density, potential._pair
        if (dens.x0, dens.h, dens.n) != (pair.x0, pair.h, pair.n):
            # every TabulatedEAM built through the public API shares one
            # radial grid; a hand-built mismatch stays on NumPy
            return None
        keep: list = []
        lowered = LoweredPotential(
            kind=KIND_TABULATED,
            density=_spline(dens, keep),
            pair=_spline(pair, keep),
            embed=_spline(potential._embed, keep),
            rho_max=potential.rho_max,
        )
        lowered.keep = keep
    else:
        return None
    lowered.cutoff = float(potential.cutoff)
    return lowered


# Lowering is cheap but per-call allocation on the hot path is not; cache
# per potential instance.  Keyed by id() with a weakref finalizer for
# eviction; potentials that refuse weak references are simply not cached.
_CACHE: dict = {}


def lower_potential(potential) -> Optional[LoweredPotential]:
    """Lower ``potential`` (cached), or None when it has no lowering."""
    key = id(potential)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    lowered = _lower_uncached(potential)
    if lowered is not None:
        try:
            weakref.finalize(potential, _CACHE.pop, key, None)
        except TypeError:
            return lowered
        _CACHE[key] = lowered
    return lowered

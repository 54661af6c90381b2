"""The Numba-compiled kernel tier.

Importing this module requires Numba; the registry in
:mod:`repro.kernels` catches the ``ImportError`` (or any construction
failure) and falls back to the NumPy tier with a single warning, so
nothing above this layer ever needs to know whether a JIT exists.

Layout mirrors the NumPy reference tier but the pair loops live inside
``@njit`` functions: the fused phase drivers traverse the CSR neighbor
layout row-by-row — the cell-blocked order Section II.D reordering
already established, so consecutive rows touch nearby atoms — with the
minimum-image fold and potential evaluation inlined per pair.  The
potential itself is consumed in lowered form
(:mod:`repro.kernels.lowering`): a kind tag plus flat float64 arrays
evaluated by scalar device functions.

Every tier *variant* (:class:`~repro.kernels.config.KernelTierConfig`)
compiles its own kernel set through :func:`build_kernel_set`, keyed by
its ``(parallel, fastmath)`` flags — the flags are no longer snapshotted
from the environment at import time.  ``cache=True`` is not used: the
kernels are closures over their compilation flags, which Numba's
on-disk cache cannot key.

Determinism and safety decisions:

* ``fastmath`` and ``parallel`` default **off** (the plain ``"numba"``
  variant) so the compiled tier is a drop-in for the deterministic
  NumPy tier.  Under ``parallel=True`` only the elementwise kernels
  ``prange``; the scatter loops stay sequential — parallelism across an
  SDC color's slices is the execution engines' job.
* Bounds are asserted at dispatch time (``check_scatter_indices``): a
  compiled loop has no ``np.add.at`` safety net and would silently
  corrupt memory on a bad index.
* Instrumented (ShadowArray) reduction targets are routed to the NumPy
  tier per call, so racecheck sees identical write sets on either tier.
* Any unexpected exception escaping a compiled kernel permanently
  degrades the instance to the NumPy tier — one warning, never a crash.
  Deliberate ``ValueError``/``IndexError`` diagnostics pass through.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import numpy as np
from numba import njit, prange

from repro.kernels.base import (
    MIN_PAIR_SEPARATION,
    KernelTier,
    check_owned_accumulator,
    check_scatter_indices,
    is_plain_ndarray,
    overlap_error,
    warn_tier_once,
)
from repro.kernels.config import KernelTierConfig
from repro.kernels.lowering import KIND_JOHNSON, lower_potential
from repro.kernels.numpy_tier import NumpyKernelTier

_EPS = float(np.finfo(np.float64).eps)


def _as_f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _as_i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


#: one compiled kernel set per (parallel, fastmath) — shared by every
#: tier instance with the same flags, so variants never recompile
_KERNEL_SETS: Dict[Tuple[bool, bool], SimpleNamespace] = {}


def build_kernel_set(
    parallel: bool = False, fastmath: bool = False
) -> SimpleNamespace:
    """Compile (once per flag pair) the full kernel set for a variant.

    The kernels close over ``parallel``/``fastmath`` instead of reading
    module globals, which is what makes variants first-class: a process
    can hold the deterministic ``numba`` tier and the ``numba-parallel``
    tier side by side, each dispatching to its own compiled functions.
    """
    key = (bool(parallel), bool(fastmath))
    cached = _KERNEL_SETS.get(key)
    if cached is not None:
        return cached

    _pr = prange if parallel else range

    def jit(func=None, *, par: bool = False):
        decorator = njit(cache=False, fastmath=fastmath, parallel=par)
        return decorator(func) if func is not None else decorator

    # --- scalar potential evaluators (device functions) -------------------

    @jit
    def _switch_scalar(r, r_switch, r_cut):
        x = (r - r_switch) / (r_cut - r_switch)
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        return 1.0 - x * x * x * (10.0 + x * (-15.0 + 6.0 * x))

    @jit
    def _switch_deriv_scalar(r, r_switch, r_cut):
        width = r_cut - r_switch
        x = (r - r_switch) / width
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return (-30.0 * x * x * (1.0 - x) * (1.0 - x)) / width

    @jit
    def _spline_value_scalar(r, x0, h, y, m):
        n = y.shape[0]
        end = x0 + (n - 1) * h
        tol = 8.0 * _EPS * max(max(abs(x0), abs(end)), 1.0)
        if r < x0 - tol or r > end + tol:
            return 0.0
        u = (r - x0) / h
        k = int(u)
        if k < 0:
            k = 0
        elif k > n - 2:
            k = n - 2
        t = u - k
        y0 = y[k]
        y1 = y[k + 1]
        m0 = m[k]
        m1 = m[k + 1]
        b = (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0
        th = t * h
        return (
            y0 + b * th + 0.5 * m0 * th * th + (m1 - m0) / (6.0 * h) * th * th * th
        )

    @jit
    def _spline_deriv_scalar(r, x0, h, y, m):
        n = y.shape[0]
        end = x0 + (n - 1) * h
        tol = 8.0 * _EPS * max(max(abs(x0), abs(end)), 1.0)
        if r < x0 - tol or r > end + tol:
            return 0.0
        u = (r - x0) / h
        k = int(u)
        if k < 0:
            k = 0
        elif k > n - 2:
            k = n - 2
        t = u - k
        y0 = y[k]
        y1 = y[k + 1]
        m0 = m[k]
        m1 = m[k + 1]
        b = (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0
        th = t * h
        return b + m0 * th + (m1 - m0) / (2.0 * h) * th * th

    @jit
    def _density_scalar(r, kind, params, x0, h, dyv, dmv, pyv, pmv):
        if kind == KIND_JOHNSON:
            re = params[0]
            fe = params[1]
            beta = params[2]
            r_switch = params[5]
            r_cut = params[6]
            if r >= r_cut:
                return 0.0
            raw = fe * np.exp(-beta * (r / re - 1.0))
            return raw * _switch_scalar(r, r_switch, r_cut)
        return _spline_value_scalar(r, x0, h, dyv, dmv)

    @jit
    def _density_deriv_scalar(r, kind, params, x0, h, dyv, dmv, pyv, pmv):
        if kind == KIND_JOHNSON:
            re = params[0]
            fe = params[1]
            beta = params[2]
            r_switch = params[5]
            r_cut = params[6]
            if r >= r_cut:
                return 0.0
            raw = fe * np.exp(-beta * (r / re - 1.0))
            raw_d = raw * (-beta / re)
            return raw_d * _switch_scalar(
                r, r_switch, r_cut
            ) + raw * _switch_deriv_scalar(r, r_switch, r_cut)
        return _spline_deriv_scalar(r, x0, h, dyv, dmv)

    @jit
    def _pair_energy_scalar(r, kind, params, x0, h, dyv, dmv, pyv, pmv):
        if kind == KIND_JOHNSON:
            re = params[0]
            D = params[3]
            a = params[4]
            r_switch = params[5]
            r_cut = params[6]
            if r >= r_cut:
                return 0.0
            e1 = np.exp(-2.0 * a * (r - re))
            e2 = np.exp(-a * (r - re))
            raw = D * (e1 - 2.0 * e2)
            return raw * _switch_scalar(r, r_switch, r_cut)
        return _spline_value_scalar(r, x0, h, pyv, pmv)

    @jit
    def _pair_energy_deriv_scalar(r, kind, params, x0, h, dyv, dmv, pyv, pmv):
        if kind == KIND_JOHNSON:
            re = params[0]
            D = params[3]
            a = params[4]
            r_switch = params[5]
            r_cut = params[6]
            if r >= r_cut:
                return 0.0
            e1 = np.exp(-2.0 * a * (r - re))
            e2 = np.exp(-a * (r - re))
            raw = D * (e1 - 2.0 * e2)
            raw_d = D * (-2.0 * a * e1 + 2.0 * a * e2)
            return raw_d * _switch_scalar(
                r, r_switch, r_cut
            ) + raw * _switch_deriv_scalar(r, r_switch, r_cut)
        return _spline_deriv_scalar(r, x0, h, pyv, pmv)

    # --- pair-slice kernels -----------------------------------------------

    @jit
    def pair_geometry(positions, i_idx, j_idx, lengths, pflags):
        n_pairs = i_idx.shape[0]
        delta = np.empty((n_pairs, 3))
        r = np.empty(n_pairs)
        for k in range(n_pairs):
            i = i_idx[k]
            j = j_idx[k]
            d0 = positions[i, 0] - positions[j, 0]
            d1 = positions[i, 1] - positions[j, 1]
            d2 = positions[i, 2] - positions[j, 2]
            if pflags[0]:
                d0 -= lengths[0] * np.floor(d0 / lengths[0] + 0.5)
            if pflags[1]:
                d1 -= lengths[1] * np.floor(d1 / lengths[1] + 0.5)
            if pflags[2]:
                d2 -= lengths[2] * np.floor(d2 / lengths[2] + 0.5)
            delta[k, 0] = d0
            delta[k, 1] = d1
            delta[k, 2] = d2
            r[k] = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        return delta, r

    @jit(par=parallel)
    def pair_terms(r, kind, params, x0, h, dyv, dmv, pyv, pmv):
        n = r.shape[0]
        phi = np.empty(n)
        dphi = np.empty(n)
        v = np.empty(n)
        dv = np.empty(n)
        for k in _pr(n):
            rk = r[k]
            phi[k] = _density_scalar(
                rk, kind, params, x0, h, dyv, dmv, pyv, pmv
            )
            dphi[k] = _density_deriv_scalar(
                rk, kind, params, x0, h, dyv, dmv, pyv, pmv
            )
            v[k] = _pair_energy_scalar(
                rk, kind, params, x0, h, dyv, dmv, pyv, pmv
            )
            dv[k] = _pair_energy_deriv_scalar(
                rk, kind, params, x0, h, dyv, dmv, pyv, pmv
            )
        return phi, dphi, v, dv

    @jit(par=parallel)
    def pair_coeff(r, fp_i, fp_j, kind, params, x0, h, dyv, dmv, pyv, pmv):
        n = r.shape[0]
        coeff = np.empty(n)
        for k in _pr(n):
            rk = r[k]
            vp = _pair_energy_deriv_scalar(
                rk, kind, params, x0, h, dyv, dmv, pyv, pmv
            )
            dp = _density_deriv_scalar(
                rk, kind, params, x0, h, dyv, dmv, pyv, pmv
            )
            coeff[k] = -(vp + (fp_i[k] + fp_j[k]) * dp) / rk
        return coeff

    @jit
    def scatter_rho_half(rho, i_idx, j_idx, phi):
        for k in range(i_idx.shape[0]):
            rho[i_idx[k]] += phi[k]
            rho[j_idx[k]] += phi[k]

    @jit
    def scatter_rho_owned(rho, i_idx, phi):
        for k in range(i_idx.shape[0]):
            rho[i_idx[k]] += phi[k]

    @jit
    def scatter_force_half(forces, i_idx, j_idx, pair_forces):
        for k in range(i_idx.shape[0]):
            i = i_idx[k]
            j = j_idx[k]
            forces[i, 0] += pair_forces[k, 0]
            forces[i, 1] += pair_forces[k, 1]
            forces[i, 2] += pair_forces[k, 2]
            forces[j, 0] -= pair_forces[k, 0]
            forces[j, 1] -= pair_forces[k, 1]
            forces[j, 2] -= pair_forces[k, 2]

    @jit
    def scatter_force_owned(forces, i_idx, pair_forces):
        for k in range(i_idx.shape[0]):
            i = i_idx[k]
            forces[i, 0] += pair_forces[k, 0]
            forces[i, 1] += pair_forces[k, 1]
            forces[i, 2] += pair_forces[k, 2]

    # --- fused phase kernels (CSR row traversal, minimum image inlined) ---

    @jit
    def density_energy_phase(
        positions, lengths, pflags, offsets, values, half, want_energy,
        kind, params, x0, h, dyv, dmv, pyv, pmv,
    ):
        n = offsets.shape[0] - 1
        rho = np.zeros(n)
        energy = 0.0
        for i in range(n):
            p0 = positions[i, 0]
            p1 = positions[i, 1]
            p2 = positions[i, 2]
            for s in range(offsets[i], offsets[i + 1]):
                j = values[s]
                d0 = p0 - positions[j, 0]
                d1 = p1 - positions[j, 1]
                d2 = p2 - positions[j, 2]
                if pflags[0]:
                    d0 -= lengths[0] * np.floor(d0 / lengths[0] + 0.5)
                if pflags[1]:
                    d1 -= lengths[1] * np.floor(d1 / lengths[1] + 0.5)
                if pflags[2]:
                    d2 -= lengths[2] * np.floor(d2 / lengths[2] + 0.5)
                rr = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
                phi = _density_scalar(
                    rr, kind, params, x0, h, dyv, dmv, pyv, pmv
                )
                rho[i] += phi
                if half:
                    rho[j] += phi
                if want_energy:
                    energy += _pair_energy_scalar(
                        rr, kind, params, x0, h, dyv, dmv, pyv, pmv
                    )
        return rho, energy

    @jit
    def force_phase(
        positions, lengths, pflags, offsets, values, fp, half,
        kind, params, x0, h, dyv, dmv, pyv, pmv,
    ):
        n = offsets.shape[0] - 1
        forces = np.zeros((n, 3))
        rmin = np.inf
        imin = -1
        jmin = -1
        for i in range(n):
            p0 = positions[i, 0]
            p1 = positions[i, 1]
            p2 = positions[i, 2]
            fpi = fp[i]
            for s in range(offsets[i], offsets[i + 1]):
                j = values[s]
                d0 = p0 - positions[j, 0]
                d1 = p1 - positions[j, 1]
                d2 = p2 - positions[j, 2]
                if pflags[0]:
                    d0 -= lengths[0] * np.floor(d0 / lengths[0] + 0.5)
                if pflags[1]:
                    d1 -= lengths[1] * np.floor(d1 / lengths[1] + 0.5)
                if pflags[2]:
                    d2 -= lengths[2] * np.floor(d2 / lengths[2] + 0.5)
                rr = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
                if rr < rmin:
                    rmin = rr
                    imin = i
                    jmin = j
                vp = _pair_energy_deriv_scalar(
                    rr, kind, params, x0, h, dyv, dmv, pyv, pmv
                )
                dp = _density_deriv_scalar(
                    rr, kind, params, x0, h, dyv, dmv, pyv, pmv
                )
                c = -(vp + (fpi + fp[j]) * dp) / rr
                f0 = c * d0
                f1 = c * d1
                f2 = c * d2
                forces[i, 0] += f0
                forces[i, 1] += f1
                forces[i, 2] += f2
                if half:
                    forces[j, 0] -= f0
                    forces[j, 1] -= f1
                    forces[j, 2] -= f2
        return forces, rmin, imin, jmin

    kernel_set = SimpleNamespace(
        parallel=bool(parallel),
        fastmath=bool(fastmath),
        pair_geometry=pair_geometry,
        pair_terms=pair_terms,
        pair_coeff=pair_coeff,
        scatter_rho_half=scatter_rho_half,
        scatter_rho_owned=scatter_rho_owned,
        scatter_force_half=scatter_force_half,
        scatter_force_owned=scatter_force_owned,
        density_energy_phase=density_energy_phase,
        force_phase=force_phase,
    )
    _KERNEL_SETS[key] = kernel_set
    return kernel_set


# --------------------------------------------------------------------------
# the tier
# --------------------------------------------------------------------------

class NumbaKernelTier(KernelTier):
    """Compiled (Numba njit) implementation of the kernel entry points.

    One instance per :class:`KernelTierConfig` variant; its ``name`` is
    the variant's canonical spec (``"numba"``, ``"numba-parallel"``,
    ...).  Potentials without a lowering, instrumented target arrays,
    and any kernel that unexpectedly fails are all delegated to an
    internal NumPy reference tier; the last case warns once and sticks.
    """

    compiled = True

    def __init__(self, config: Optional[KernelTierConfig] = None) -> None:
        self.config = config or KernelTierConfig(base="numba")
        # an "auto" spec that resolved here IS the numba tier
        self.name = self.config.name.replace("auto", "numba", 1)
        self._numpy = NumpyKernelTier()
        self._broken = False
        self._kernels = build_kernel_set(
            parallel=self.config.parallel, fastmath=self.config.fastmath
        )
        self._smoke_test()

    def _smoke_test(self) -> None:
        """Force one tiny compilation so a broken JIT toolchain surfaces
        here — where the registry can catch it — not mid-simulation."""
        rho = np.zeros(2)
        self._kernels.scatter_rho_half(
            rho,
            np.zeros(1, dtype=np.int64),
            np.ones(1, dtype=np.int64),
            np.ones(1, dtype=np.float64),
        )
        if rho[0] != 1.0 or rho[1] != 1.0:
            raise RuntimeError(
                "numba kernel smoke test produced wrong results"
            )

    def supports(self, potential) -> bool:
        return lower_potential(potential) is not None

    def _run(self, name: str, compiled_call, fallback_call):
        """Run a compiled path, degrading permanently on unexpected errors.

        Deliberate diagnostics (the bounds ``IndexError``s and the
        overlapping-atoms ``ValueError``) propagate; anything else — a
        typing error, a lowering failure, a broken cache — flips the
        instance to NumPy-only with a single warning.
        """
        if self._broken:
            return fallback_call()
        try:
            return compiled_call()
        except (ValueError, IndexError):
            raise
        except Exception as exc:
            self._broken = True
            warn_tier_once(
                f"numba-broken-{id(self)}",
                f"{self.name} kernel tier disabled after {name!r} failed "
                f"({type(exc).__name__}: {exc}); continuing on the numpy "
                "tier",
            )
            return fallback_call()

    # --- pair-slice primitives ----------------------------------------------

    def pair_geometry(self, positions, box, i_idx, j_idx):
        n = len(positions)
        check_scatter_indices("pair geometry", n, i_idx, j_idx)
        return self._run(
            "pair_geometry",
            lambda: self._kernels.pair_geometry(
                _as_f64(positions),
                _as_i64(i_idx),
                _as_i64(j_idx),
                box.lengths,
                box.periodic,
            ),
            lambda: self._numpy.pair_geometry(positions, box, i_idx, j_idx),
        )

    def pair_terms(self, potential, r):
        lowered = lower_potential(potential)
        if lowered is None:
            return self._numpy.pair_terms(potential, r)
        return self._run(
            "pair_terms",
            lambda: self._kernels.pair_terms(_as_f64(r), *lowered.args),
            lambda: self._numpy.pair_terms(potential, r),
        )

    def scatter_rho_half(self, rho, i_idx, j_idx, phi):
        check_scatter_indices(
            "half-list density scatter", len(rho), i_idx, j_idx
        )
        if not is_plain_ndarray(rho):
            return self._numpy.scatter_rho_half(rho, i_idx, j_idx, phi)
        return self._run(
            "scatter_rho_half",
            lambda: self._kernels.scatter_rho_half(
                rho, _as_i64(i_idx), _as_i64(j_idx), _as_f64(phi)
            ),
            lambda: self._numpy.scatter_rho_half(rho, i_idx, j_idx, phi),
        )

    def scatter_rho_owned(self, rho, i_idx, phi, n_atoms):
        check_owned_accumulator("owned-row density scatter", rho, n_atoms)
        i_idx = np.asarray(i_idx)
        check_scatter_indices("owned-row density scatter", n_atoms, i_idx)
        if not is_plain_ndarray(rho):
            return self._numpy.scatter_rho_owned(rho, i_idx, phi, n_atoms)
        return self._run(
            "scatter_rho_owned",
            lambda: self._kernels.scatter_rho_owned(
                rho, _as_i64(i_idx), _as_f64(phi)
            ),
            lambda: self._numpy.scatter_rho_owned(rho, i_idx, phi, n_atoms),
        )

    def force_pair_coefficients(
        self,
        potential,
        r,
        fp_i,
        fp_j,
        pair_ids: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        min_separation: float = MIN_PAIR_SEPARATION,
    ):
        if len(r) and float(np.min(r)) < min_separation:
            k = int(np.argmin(r))
            raise overlap_error(r, k, pair_ids, min_separation)
        lowered = lower_potential(potential)
        if lowered is None:
            return self._numpy.force_pair_coefficients(
                potential, r, fp_i, fp_j, pair_ids, min_separation
            )
        return self._run(
            "force_pair_coefficients",
            lambda: self._kernels.pair_coeff(
                _as_f64(r), _as_f64(fp_i), _as_f64(fp_j), *lowered.args
            ),
            lambda: self._numpy.force_pair_coefficients(
                potential, r, fp_i, fp_j, pair_ids, min_separation
            ),
        )

    def scatter_force_half(self, forces, i_idx, j_idx, pair_forces):
        check_scatter_indices(
            "half-list force scatter", len(forces), i_idx, j_idx
        )
        if not is_plain_ndarray(forces):
            return self._numpy.scatter_force_half(
                forces, i_idx, j_idx, pair_forces
            )
        return self._run(
            "scatter_force_half",
            lambda: self._kernels.scatter_force_half(
                forces, _as_i64(i_idx), _as_i64(j_idx), _as_f64(pair_forces)
            ),
            lambda: self._numpy.scatter_force_half(
                forces, i_idx, j_idx, pair_forces
            ),
        )

    def scatter_force_owned(self, forces, i_idx, pair_forces, n_atoms):
        check_owned_accumulator("owned-row force scatter", forces, n_atoms)
        check_scatter_indices("owned-row force scatter", n_atoms, i_idx)
        if not is_plain_ndarray(forces):
            return self._numpy.scatter_force_owned(
                forces, i_idx, pair_forces, n_atoms
            )
        return self._run(
            "scatter_force_owned",
            lambda: self._kernels.scatter_force_owned(
                forces, _as_i64(i_idx), _as_f64(pair_forces)
            ),
            lambda: self._numpy.scatter_force_owned(
                forces, i_idx, pair_forces, n_atoms
            ),
        )

    # --- fused phase drivers ------------------------------------------------

    def density_and_pair_energy_phase(
        self,
        potential,
        positions,
        box,
        nlist,
        counter=None,
        want_pair_energy: bool = True,
    ):
        lowered = lower_potential(potential)
        if lowered is None:
            return self._numpy.density_and_pair_energy_phase(
                potential, positions, box, nlist, counter, want_pair_energy
            )
        n = len(positions)
        values = _as_i64(nlist.csr.values)
        n_pairs = len(values)
        if n_pairs == 0:
            return np.zeros(n), 0.0
        check_scatter_indices("density phase", n, values)
        offsets = _as_i64(nlist.csr.offsets)
        half = bool(nlist.half)

        def compiled():
            rho, energy = self._kernels.density_energy_phase(
                _as_f64(positions),
                box.lengths,
                box.periodic,
                offsets,
                values,
                half,
                want_pair_energy,
                *lowered.args,
            )
            pair_energy = 0.0
            if want_pair_energy:
                pair_energy = float(energy) * (1.0 if half else 0.5)
            return rho, pair_energy

        rho, pair_energy = self._run(
            "density_and_pair_energy_phase",
            compiled,
            lambda: self._numpy.density_and_pair_energy_phase(
                potential, positions, box, nlist, None, want_pair_energy
            ),
        )
        if counter is not None:
            counter.add("density_pairs", n_pairs)
            counter.add("rho_updates", (2 if half else 1) * n_pairs)
        return rho, pair_energy

    def force_phase(
        self, potential, positions, box, nlist, fp, counter=None
    ):
        lowered = lower_potential(potential)
        if lowered is None:
            return self._numpy.force_phase(
                potential, positions, box, nlist, fp, counter
            )
        n = len(positions)
        values = _as_i64(nlist.csr.values)
        n_pairs = len(values)
        if n_pairs == 0:
            return np.zeros((n, 3))
        check_scatter_indices("force phase", n, values)
        offsets = _as_i64(nlist.csr.offsets)
        half = bool(nlist.half)

        def compiled():
            forces, rmin, imin, jmin = self._kernels.force_phase(
                _as_f64(positions),
                box.lengths,
                box.periodic,
                offsets,
                values,
                _as_f64(fp),
                half,
                *lowered.args,
            )
            if rmin < MIN_PAIR_SEPARATION:
                raise overlap_error(
                    np.array([rmin]),
                    0,
                    (np.array([imin]), np.array([jmin])),
                    MIN_PAIR_SEPARATION,
                )
            return forces

        forces = self._run(
            "force_phase",
            compiled,
            lambda: self._numpy.force_phase(
                potential, positions, box, nlist, fp, None
            ),
        )
        if counter is not None:
            counter.add("force_pairs", n_pairs)
            counter.add("force_updates", (2 if half else 1) * n_pairs * 3)
        return forces

"""Analytic EAM parameterization for bcc iron.

The paper uses XMD's tabulated Fe potential, which is not redistributable;
this module provides a self-contained Johnson-style analytic substitute with
the same structure (exponential density, Morse-like pair term, square-root
embedding a la Finnis-Sinclair) and the same computational profile: a
cutoff between the second and third bcc neighbor shells, so every atom in a
perfect crystal has 8 + 6 = 14 neighbors — matching the "metal atoms
usually have more neighboring atoms" workload the paper emphasizes.

All functions are C^1-smooth at the cutoff via a quintic switching function,
so Verlet-list skins and integrator energy conservation behave properly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.potentials.base import EAMPotential


def _smoothstep_down(x: np.ndarray) -> np.ndarray:
    """Quintic 1 -> 0 switch on [0, 1] with zero first/second derivatives at ends."""
    x = np.clip(x, 0.0, 1.0)
    return 1.0 - x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_down_deriv(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`_smoothstep_down` with respect to x."""
    inside = (x > 0.0) & (x < 1.0)
    x = np.clip(x, 0.0, 1.0)
    d = -30.0 * x * x * (1.0 - x) ** 2
    return np.where(inside, d, 0.0)


@dataclass(frozen=True)
class JohnsonFePotential(EAMPotential):
    """Analytic bcc-Fe EAM.

    Functional forms (``re`` = first-neighbor distance):

    * density        ``phi(r) = fe * exp(-beta (r/re - 1)) * s(r)``
    * pair energy    ``V(r)   = D * (exp(-2 a (r - re)) - 2 exp(-a (r - re))) * s(r)``
    * embedding      ``F(rho) = -F0 * sqrt(rho / rho_e)``

    where ``s(r)`` switches smoothly from 1 to 0 on ``[r_switch, r_cut]``.
    Default constants give a bound bcc crystal with sensible elastic
    stiffness; they are *not* fitted to experimental Fe data — the
    reproduction needs the computational shape of EAM, not quantitative
    metallurgy (see DESIGN.md, substitutions).
    """

    re: float = units.FE_BCC_NN_DIST
    fe: float = 1.0
    beta: float = 3.6
    D: float = 0.8
    a: float = 1.6
    F0: float = 2.4
    rho_e: float = 12.0
    r_switch: float = 3.2
    r_cut: float = 3.6

    def __post_init__(self) -> None:
        if not 0 < self.r_switch < self.r_cut:
            raise ValueError(
                f"need 0 < r_switch < r_cut, got {self.r_switch}, {self.r_cut}"
            )
        for name in ("re", "fe", "D", "a", "beta", "F0", "rho_e"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def cutoff(self) -> float:
        return self.r_cut

    # --- switching ------------------------------------------------------------

    def _switch(self, r: np.ndarray) -> np.ndarray:
        x = (r - self.r_switch) / (self.r_cut - self.r_switch)
        return _smoothstep_down(x)

    def _switch_deriv(self, r: np.ndarray) -> np.ndarray:
        width = self.r_cut - self.r_switch
        x = (r - self.r_switch) / width
        return _smoothstep_down_deriv(x) / width

    def _inside(self, r: np.ndarray) -> np.ndarray:
        return r < self.r_cut

    # --- density --------------------------------------------------------------

    def density(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        raw = self.fe * np.exp(-self.beta * (r / self.re - 1.0))
        return np.where(self._inside(r), raw * self._switch(r), 0.0)

    def density_deriv(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        raw = self.fe * np.exp(-self.beta * (r / self.re - 1.0))
        raw_d = raw * (-self.beta / self.re)
        total = raw_d * self._switch(r) + raw * self._switch_deriv(r)
        return np.where(self._inside(r), total, 0.0)

    # --- pair term --------------------------------------------------------------

    def pair_energy(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        e1 = np.exp(-2.0 * self.a * (r - self.re))
        e2 = np.exp(-self.a * (r - self.re))
        raw = self.D * (e1 - 2.0 * e2)
        return np.where(self._inside(r), raw * self._switch(r), 0.0)

    def pair_energy_deriv(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        e1 = np.exp(-2.0 * self.a * (r - self.re))
        e2 = np.exp(-self.a * (r - self.re))
        raw = self.D * (e1 - 2.0 * e2)
        raw_d = self.D * (-2.0 * self.a * e1 + 2.0 * self.a * e2)
        total = raw_d * self._switch(r) + raw * self._switch_deriv(r)
        return np.where(self._inside(r), total, 0.0)

    # --- all four in one pass ---------------------------------------------------

    def pair_terms(self, r: np.ndarray):
        """One pass sharing ``r - re``, two exponentials (``e1 = e2 * e2``)
        and one switch + switch derivative between the four functions.

        Within a few ulp (bound: 1e-12 of each function's scale) of the
        composed default, not bit-identical to it.  The clipped quintic is
        exactly ``s = 1, s' = 0`` up to ``r_switch`` and ``s = s' = 0`` from
        ``r_cut`` on, so the zeros beyond the cutoff need no mask.
        """
        r = np.asarray(r, dtype=np.float64)
        width = self.r_cut - self.r_switch
        x = np.clip((r - self.r_switch) / width, 0.0, 1.0)
        s = 1.0 - x * x * x * (10.0 + x * (6.0 * x - 15.0))
        ds = x * (1.0 - x)
        ds *= ds
        ds *= -30.0 / width
        dr = r - self.re
        slope = -self.beta / self.re
        raw = np.exp(slope * dr)
        raw *= self.fe
        phi = raw * s
        dphi = slope * phi
        raw *= ds
        dphi += raw
        e2 = np.exp(-self.a * dr)
        e1 = e2 * e2
        raw_v = self.D * (e1 - 2.0 * e2)
        dv = e2 - e1
        dv *= 2.0 * self.a * self.D
        dv *= s
        v = raw_v * s
        raw_v *= ds
        dv += raw_v
        return phi, dphi, v, dv

    # --- embedding --------------------------------------------------------------

    def embed(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        return -self.F0 * np.sqrt(np.maximum(rho, 0.0) / self.rho_e)

    def embed_deriv(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        safe = np.maximum(rho, 1e-12)
        return -0.5 * self.F0 / np.sqrt(safe * self.rho_e)


def fe_potential() -> JohnsonFePotential:
    """The library's default Fe potential (the paper's workload material).

    The cutoff 3.6 Å sits between the second (2.8665 Å) and third
    (4.0539 Å) neighbor shells of bcc Fe at its conventional lattice
    constant, giving exactly 14 neighbors per atom in the perfect crystal.
    """
    return JohnsonFePotential()

"""Tabulated EAM potentials and setfl-style file I/O.

Real metal potentials (including the XMD Fe tables the paper used) are
distributed as sampled functions.  :func:`tabulate` converts any analytic
:class:`~repro.potentials.base.EAMPotential` into a :class:`TabulatedEAM`
evaluated through natural cubic splines, and :func:`write_setfl` /
:func:`read_setfl` round-trip the tables through the de-facto standard
single-element ``setfl``-like text format so downstream users can plug in
their own potential files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.potentials.base import EAMPotential
from repro.potentials.spline import CubicSpline


class TabulatedEAM(EAMPotential):
    """An EAM potential defined by sampled density/pair/embedding tables.

    Parameters
    ----------
    r_values, density_values, pair_values:
        uniform grid on ``[0 or r_min, cutoff]`` with phi(r) and V(r)
        samples; both must be 0 at the last knot.
    rho_values, embed_values:
        uniform grid of host densities with F(rho) samples.
    """

    def __init__(
        self,
        r_values: np.ndarray,
        density_values: np.ndarray,
        pair_values: np.ndarray,
        rho_values: np.ndarray,
        embed_values: np.ndarray,
    ) -> None:
        r_values = np.asarray(r_values, dtype=np.float64)
        self._cutoff = float(r_values[-1])
        self._density = CubicSpline(r_values, density_values)
        self._pair = CubicSpline(r_values, pair_values)
        self._embed = CubicSpline(rho_values, embed_values)
        self._rho_max = float(np.asarray(rho_values)[-1])

    @property
    def cutoff(self) -> float:
        return self._cutoff

    @property
    def rho_max(self) -> float:
        """Largest tabulated host density."""
        return self._rho_max

    def density(self, r: np.ndarray) -> np.ndarray:
        return self._density(r)

    def density_deriv(self, r: np.ndarray) -> np.ndarray:
        return self._density.derivative(r)

    def pair_energy(self, r: np.ndarray) -> np.ndarray:
        return self._pair(r)

    def pair_energy_deriv(self, r: np.ndarray) -> np.ndarray:
        return self._pair.derivative(r)

    def pair_terms(self, r: np.ndarray):
        # both radial tables sit on one grid: locate the slice once
        located = self._density.locate(r)
        return (
            *self._density.value_and_derivative(located),
            *self._pair.value_and_derivative(located),
        )

    def embed(self, rho: np.ndarray) -> np.ndarray:
        return self._embed(np.clip(rho, 0.0, self._rho_max))

    def embed_deriv(self, rho: np.ndarray) -> np.ndarray:
        return self._embed.derivative(np.clip(rho, 0.0, self._rho_max))


def tabulate(
    potential: EAMPotential,
    n_r: int = 2000,
    n_rho: int = 2000,
    rho_max: float = 100.0,
    r_min: float = 0.5,
) -> TabulatedEAM:
    """Sample an analytic EAM potential onto uniform tables.

    The radial grid runs from ``r_min`` (below any physical separation) to
    the potential's cutoff; the last sample of phi and V is forced to the
    analytic value there (which a well-formed potential makes 0).
    """
    if n_r < 8 or n_rho < 8:
        raise ValueError("need at least 8 table points per axis")
    if rho_max <= 0:
        raise ValueError("rho_max must be positive")
    r = np.linspace(r_min, potential.cutoff, n_r)
    rho = np.linspace(0.0, rho_max, n_rho)
    return TabulatedEAM(
        r_values=r,
        density_values=potential.density(r),
        pair_values=potential.pair_energy(r),
        rho_values=rho,
        embed_values=potential.embed(rho),
    )


def write_setfl(
    potential: TabulatedEAM,
    path: Union[str, Path],
    element: str = "Fe",
    mass: float = 55.845,
    lattice: float = 2.8665,
    structure: str = "bcc",
) -> None:
    """Write a single-element setfl-like table file.

    Layout (text): 3 comment lines; element line; ``n_rho d_rho n_r d_r
    cutoff``; then F(rho) samples, phi(r) samples, and r*V(r) samples
    (the setfl convention stores the pair function premultiplied by r).
    """
    path = Path(path)
    r_knots = potential._pair.knots()
    rho_knots = potential._embed.knots()
    lines = [
        "# single-element EAM table written by repro.potentials.tables",
        "# format: simplified setfl (F, phi, r*V blocks)",
        "#",
        f"1 {element}",
        f"{len(rho_knots)} {rho_knots[1] - rho_knots[0]:.16e} "
        f"{len(r_knots)} {r_knots[1] - r_knots[0]:.16e} {potential.cutoff:.16e}",
        f"{element} {mass:.6f} {lattice:.6f} {structure}",
        f"{r_knots[0]:.16e}",
    ]
    for block in (
        potential._embed.y,
        potential._density.y,
        r_knots * potential._pair.y,
    ):
        lines.extend(f"{v:.16e}" for v in block)
    path.write_text("\n".join(lines) + "\n")


def read_setfl(path: Union[str, Path]) -> TabulatedEAM:
    """Read a file written by :func:`write_setfl`."""
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens.extend(stripped.split())
    pos = 0

    def take(n: int) -> list[str]:
        nonlocal pos
        chunk = tokens[pos : pos + n]
        if len(chunk) != n:
            raise ValueError("truncated setfl file")
        pos += n
        return chunk

    n_elements = int(take(1)[0])
    if n_elements != 1:
        raise ValueError(f"only single-element files supported, got {n_elements}")
    take(1)  # element symbol
    n_rho_s, d_rho_s, n_r_s, d_r_s, cutoff_s = take(5)
    n_rho, n_r = int(n_rho_s), int(n_r_s)
    d_rho, d_r, cutoff = float(d_rho_s), float(d_r_s), float(cutoff_s)
    take(4)  # element, mass, lattice, structure
    r_min = float(take(1)[0])
    embed = np.array([float(v) for v in take(n_rho)])
    density = np.array([float(v) for v in take(n_r)])
    r_times_pair = np.array([float(v) for v in take(n_r)])
    r = r_min + d_r * np.arange(n_r)
    if not np.isclose(r[-1], cutoff, rtol=1e-6):
        raise ValueError(
            f"radial grid ends at {r[-1]}, header says cutoff {cutoff}"
        )
    pair = r_times_pair / np.maximum(r, 1e-12)
    rho = d_rho * np.arange(n_rho)
    return TabulatedEAM(
        r_values=r,
        density_values=density,
        pair_values=pair,
        rho_values=rho,
        embed_values=embed,
    )

"""Subdomain coloring — step 2 of the SDC method.

Section II.B: *"subdomains are colored with a set of different colors in
such a way that each subdomain is surrounded only by those subdomains with
different colors. And the number of subdomains with each color is equal."*

For the regular grids SDC builds, the parity (red-black style) coloring
needs exactly ``2^d`` colors for a ``d``-dimensional decomposition — the
paper's 2 (1-D), 4 (2-D) and 8 (3-D).  :func:`validate_coloring` checks
an assignment against the grid's adjacency structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.domain import SubdomainGrid


@dataclass(frozen=True)
class Coloring:
    """An assignment of colors to subdomains.

    Attributes
    ----------
    color_of:
        ``int64`` array, ``color_of[s]`` in ``[0, n_colors)``.
    n_colors:
        number of distinct colors.
    """

    color_of: np.ndarray
    n_colors: int

    def __post_init__(self) -> None:
        color_of = np.ascontiguousarray(self.color_of, dtype=np.int64)
        if color_of.ndim != 1:
            raise ValueError("color_of must be 1-D")
        if self.n_colors < 1:
            raise ValueError("n_colors must be >= 1")
        if len(color_of) and (color_of.min() < 0 or color_of.max() >= self.n_colors):
            raise ValueError("colors out of range")
        object.__setattr__(self, "color_of", color_of)

    @property
    def n_subdomains(self) -> int:
        """Number of colored subdomains."""
        return len(self.color_of)

    def members(self, color: int) -> np.ndarray:
        """Subdomain ids holding ``color``."""
        return np.flatnonzero(self.color_of == color)

    def class_sizes(self) -> np.ndarray:
        """Number of subdomains per color."""
        return np.bincount(self.color_of, minlength=self.n_colors)

    def is_balanced(self) -> bool:
        """The paper requires equal class sizes; true when that holds."""
        sizes = self.class_sizes()
        return bool(np.all(sizes == sizes[0]))


def lattice_coloring(grid: SubdomainGrid) -> Coloring:
    """Parity coloring of a subdomain grid: ``2^d`` colors.

    The color of subdomain ``(sx, sy, sz)`` packs the parity bit of each
    *decomposed* axis; with even per-axis counts the coloring is proper
    under periodic wrap-around and the classes are exactly equal in size.
    """
    ids = np.arange(grid.n_subdomains, dtype=np.int64)
    coords = grid.coords_of(ids)
    color = np.zeros(grid.n_subdomains, dtype=np.int64)
    bit = 0
    for axis in grid.decomposed_axes:
        color |= (coords[:, axis] % 2) << bit
        bit += 1
    return Coloring(color_of=color, n_colors=grid.n_colors)


def validate_coloring(grid: SubdomainGrid, coloring: Coloring) -> None:
    """Raise :class:`ValueError` if any adjacent subdomains share a color.

    Adjacency is the wrapped 27-stencil of the grid — exactly the subdomain
    pairs whose write regions can overlap when edges exceed ``2 * reach``.
    """
    if coloring.n_subdomains != grid.n_subdomains:
        raise ValueError(
            f"coloring covers {coloring.n_subdomains} subdomains, grid has "
            f"{grid.n_subdomains}"
        )
    for s, t in grid.adjacency_pairs():
        if coloring.color_of[s] == coloring.color_of[t]:
            raise ValueError(
                f"adjacent subdomains {s} and {t} share color "
                f"{coloring.color_of[s]}"
            )

"""Subdomain grids — step 1 of the SDC method.

Section II.B of the paper: *"SDC method firstly split the spatial domain of
simulations into several subdomains. But in order to make computations as
supposed, we require that the length of subdomains in each of the spatial
decomposed dimensions should be longer than 2 r_c, and we require that the
number of subdomains in each of the spatial decomposed dimensions should be
even."*

Both constraints exist for one reason: with edges longer than ``2 r``
(``r`` being the neighbor-list reach, cutoff + skin) and even counts under
periodic wrap-around, subdomains at grid distance >= 2 along every
decomposed axis have write regions (own volume dilated by ``r``) that
cannot overlap — which is exactly what the coloring exploits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.box import Box


class DecompositionError(ValueError):
    """The box cannot be decomposed under the SDC constraints."""


@dataclass(frozen=True)
class SubdomainGrid:
    """A regular grid of subdomains over a periodic box.

    Attributes
    ----------
    box:
        the simulation box being decomposed.
    counts:
        subdomains per axis; 1 on axes that are not decomposed.
    reach:
        the interaction reach (cutoff + skin) the constraints were checked
        against.  Every decomposed axis satisfies ``edge > 2 * reach`` and
        has an even count.
    """

    box: Box
    counts: Tuple[int, int, int]
    reach: float

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.counts):
            raise ValueError(f"counts must be >= 1, got {self.counts}")
        if self.reach <= 0:
            raise ValueError(f"reach must be positive, got {self.reach}")
        for axis, count in enumerate(self.counts):
            if count == 1:
                continue
            edge = self.box.lengths[axis] / count
            if not edge > 2.0 * self.reach:
                raise DecompositionError(
                    f"axis {axis}: subdomain edge {edge:.4f} must exceed "
                    f"2*reach = {2 * self.reach:.4f}"
                )
            if count % 2 != 0:
                raise DecompositionError(
                    f"axis {axis}: count {count} must be even"
                )

    # --- structure ----------------------------------------------------------

    @property
    def decomposed_axes(self) -> Tuple[int, ...]:
        """Axes with more than one subdomain."""
        return tuple(a for a in range(3) if self.counts[a] > 1)

    @property
    def dimensionality(self) -> int:
        """1, 2 or 3 — the paper's one/two/three-dimensional SDC variants."""
        return len(self.decomposed_axes)

    @property
    def n_subdomains(self) -> int:
        """Total subdomain count."""
        return self.counts[0] * self.counts[1] * self.counts[2]

    @property
    def n_colors(self) -> int:
        """Colors the lattice coloring needs: 2^dimensionality."""
        return 2 ** self.dimensionality

    def edge_lengths(self) -> np.ndarray:
        """Subdomain edge lengths per axis."""
        return self.box.lengths / np.asarray(self.counts, dtype=np.float64)

    # --- indexing ----------------------------------------------------------

    def coords_of(self, flat: np.ndarray) -> np.ndarray:
        """Flat subdomain ids -> integer ``(sx, sy, sz)`` coordinates."""
        flat = np.asarray(flat, dtype=np.int64)
        _, ny, nz = self.counts
        sz = flat % nz
        sy = (flat // nz) % ny
        sx = flat // (nz * ny)
        return np.stack([sx, sy, sz], axis=-1)

    def flat_of(self, coords: np.ndarray) -> np.ndarray:
        """Integer coordinates -> flat ids (no wrapping)."""
        coords = np.asarray(coords, dtype=np.int64)
        _, ny, nz = self.counts
        return (coords[..., 0] * ny + coords[..., 1]) * nz + coords[..., 2]

    def subdomain_of_positions(self, wrapped: np.ndarray) -> np.ndarray:
        """Flat subdomain id containing each position, wrapped already."""
        coords = np.floor(wrapped / self.edge_lengths()).astype(np.int64)
        coords = np.clip(coords, 0, np.asarray(self.counts) - 1)
        return self.flat_of(coords)

    def bounds_of(self, flat: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` corner coordinates of one subdomain."""
        coords = self.coords_of(np.asarray([flat]))[0]
        edges = self.edge_lengths()
        lo = coords * edges
        return lo, lo + edges

    # --- adjacency ----------------------------------------------------------

    def _steps(self, flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(source, target)`` of each 27-stencil step from ``flat`` to
        another subdomain, wrapped on periodic axes, dropped off open ones."""
        counts = np.asarray(self.counts, dtype=np.int64)
        coords = self.coords_of(flat)[:, None, :] + _STENCIL
        inside = np.all(
            ((coords >= 0) & (coords < counts)) | self.box.periodic, axis=-1
        )
        target = self.flat_of(coords % counts)
        source = np.broadcast_to(np.asarray(flat)[:, None], target.shape)
        keep = inside & (target != source)
        return source[keep], target[keep]

    def neighbor_subdomains(self, flat: int) -> np.ndarray:
        """Flat ids of the grid neighbors of a subdomain (27-stencil, wrapped).

        Neighbors through periodic wrap are included on periodic axes; the
        subdomain itself is excluded; duplicates from small counts are
        removed.
        """
        return np.unique(self._steps(np.array([flat], dtype=np.int64))[1])

    def adjacency_pairs(self) -> list[tuple[int, int]]:
        """All undirected adjacent subdomain pairs (for coloring validation)."""
        s, t = self._steps(np.arange(self.n_subdomains, dtype=np.int64))
        key = np.unique(np.minimum(s, t) * self.n_subdomains + np.maximum(s, t))
        return list(zip(*(a.tolist() for a in np.divmod(key, self.n_subdomains))))


#: the 26 steps of the 27-stencil
_STENCIL = np.array(
    [o for o in itertools.product((-1, 0, 1), repeat=3) if o != (0, 0, 0)],
    dtype=np.int64,
)


def max_even_count(length: float, reach: float) -> int:
    """Largest even subdomain count along an axis of ``length``.

    The count must keep the edge strictly longer than ``2 * reach``; returns
    0 if not even 2 subdomains fit.
    """
    if reach <= 0:
        raise ValueError("reach must be positive")
    limit = length / (2.0 * reach)
    count = int(math.ceil(limit)) - 1  # largest int with edge strictly > 2*reach
    while count >= 1 and not (length / count > 2.0 * reach):
        count -= 1
    count -= count % 2  # force even
    return max(count, 0)


def decompose(
    box: Box,
    reach: float,
    dims: int,
    axes: Optional[Sequence[int]] = None,
    max_per_axis: Optional[int] = None,
) -> SubdomainGrid:
    """Decompose ``box`` into an SDC-valid subdomain grid.

    Parameters
    ----------
    reach:
        interaction reach (cutoff + skin) governing the ``> 2*reach``
        constraint.
    dims:
        1, 2 or 3 — how many axes to decompose (the paper's three variants).
    axes:
        which axes to decompose; defaults to the ``dims`` longest axes
        (more room means more subdomains).
    max_per_axis:
        optional even upper bound on per-axis counts (used by ablation
        studies); the constraint-maximal count is the default because more
        subdomains mean more exploitable parallelism.

    Raises
    ------
    DecompositionError
        if any selected axis cannot host at least 2 subdomains.
    """
    if dims not in (1, 2, 3):
        raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
    if axes is None:
        axes = list(np.argsort(box.lengths)[::-1][:dims])
    axes = [int(a) for a in axes]
    if len(axes) != dims or len(set(axes)) != dims:
        raise ValueError(f"axes must be {dims} distinct axes, got {axes}")
    if any(a not in (0, 1, 2) for a in axes):
        raise ValueError(f"axes must be in (0, 1, 2), got {axes}")
    counts = [1, 1, 1]
    for axis in axes:
        count = max_even_count(float(box.lengths[axis]), reach)
        if max_per_axis is not None:
            if max_per_axis < 2 or max_per_axis % 2 != 0:
                raise ValueError("max_per_axis must be an even int >= 2")
            count = min(count, max_per_axis)
        if count < 2:
            raise DecompositionError(
                f"axis {axis} (length {box.lengths[axis]:.3f}) cannot fit two "
                f"subdomains longer than 2*reach = {2 * reach:.3f}"
            )
        counts[axis] = count
    return SubdomainGrid(box=box, counts=tuple(counts), reach=reach)


def decompose_balanced(
    box: Box,
    reach: float,
    dims: int,
    n_threads: int,
    axes: Optional[Sequence[int]] = None,
) -> SubdomainGrid:
    """Decompose while balancing same-color subdomains over ``n_threads``.

    The paper balances load by making "subdomains with same color have
    roughly equal volume" and picking decompositions whose per-color
    subdomain count divides evenly over the threads.  This chooses, among
    all constraint-respecting even per-axis counts, the grid minimizing the
    static-schedule imbalance ``ceil(S/p) * p / S`` (``S`` = subdomains per
    color), breaking ties toward more subdomains (smaller, cachier
    subdomains).

    Raises :class:`DecompositionError` when no valid grid exists.
    """
    if dims not in (1, 2, 3):
        raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    if axes is None:
        axes = list(np.argsort(box.lengths)[::-1][:dims])
    axes = [int(a) for a in axes]
    max_counts = {}
    for axis in axes:
        count = max_even_count(float(box.lengths[axis]), reach)
        if count < 2:
            raise DecompositionError(
                f"axis {axis} (length {box.lengths[axis]:.3f}) cannot fit two "
                f"subdomains longer than 2*reach = {2 * reach:.3f}"
            )
        max_counts[axis] = count

    def candidates(axis: int) -> Iterable[int]:
        return range(2, max_counts[axis] + 1, 2)

    best: Optional[Tuple[float, int, Tuple[int, int, int]]] = None
    for combo in itertools.product(*(candidates(a) for a in axes)):
        counts = [1, 1, 1]
        for axis, c in zip(axes, combo):
            counts[axis] = c
        total = counts[0] * counts[1] * counts[2]
        per_color = total // (2 ** dims)
        makespan_tasks = -(-per_color // n_threads)  # ceil
        imbalance = makespan_tasks * n_threads / per_color
        key = (imbalance, -total, tuple(counts))
        if best is None or key < best:
            best = key
    assert best is not None
    return SubdomainGrid(box=box, counts=best[2], reach=reach)


def parallel_degree(grid: SubdomainGrid) -> int:
    """Subdomains per color — the maximum exploitable thread count.

    The paper: *"If the number of subdomains with one color is adequate for
    threads provided by multi-core platforms, then our method can ...
    effectively exploit multi-core architectures."*  1-D SDC's blank table
    cells are exactly the cases where this number is below the thread count.
    """
    return grid.n_subdomains // grid.n_colors

"""CSR (compressed sparse row) containers and segment arithmetic.

The paper's kernels (Figs. 1, 2, 7, 8) operate on exactly this layout: a
flat ``neighlist`` array indexed through per-row ``neighindex``/``neighlen``
arrays, and a subdomain partition expressed as ``pstart``/``partindex``.
:class:`CSR` is the shared representation for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class CSR:
    """A compressed row structure: ``values[offsets[r]:offsets[r+1]]`` is row ``r``.

    Attributes
    ----------
    offsets:
        ``int64`` array of length ``n_rows + 1``, non-decreasing, starting
        at 0 and ending at ``len(values)``.
    values:
        flat ``int64`` payload array (atom indices, neighbor indices, ...).
    """

    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.int64)
        if offsets.ndim != 1 or values.ndim != 1:
            raise ValueError("CSR offsets and values must be 1-D")
        if len(offsets) == 0:
            raise ValueError("CSR offsets must have at least one entry")
        if offsets[0] != 0:
            raise ValueError("CSR offsets must start at 0")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("CSR offsets must be non-decreasing")
        if offsets[-1] != len(values):
            raise ValueError(
                f"CSR offsets end at {offsets[-1]} but values has {len(values)} entries"
            )
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return len(self.offsets) - 1

    @property
    def n_values(self) -> int:
        """Total payload length across all rows."""
        return int(self.offsets[-1])

    def row(self, r: int) -> np.ndarray:
        """Return row ``r`` as a view into ``values``."""
        return self.values[self.offsets[r] : self.offsets[r + 1]]

    def row_lengths(self) -> np.ndarray:
        """Per-row lengths (the paper's ``neighlen`` array)."""
        return np.diff(self.offsets)

    def row_of_value(self) -> np.ndarray:
        """For each payload slot, the row it belongs to.

        This is the expansion the vectorized kernels use: a flat ``i`` index
        aligned with ``values`` (the flat ``j`` index).
        """
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), self.row_lengths())

    def __iter__(self) -> Iterator[np.ndarray]:
        for r in range(self.n_rows):
            yield self.row(r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSR):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self) -> int:  # frozen dataclass wants it; cheap structural hash
        return hash((self.offsets.tobytes(), self.values.tobytes()))


def csr_from_lists(rows: Sequence[Iterable[int]]) -> CSR:
    """Build a :class:`CSR` from a sequence of per-row iterables."""
    materialized = [np.asarray(list(row), dtype=np.int64) for row in rows]
    lengths = np.array([len(row) for row in materialized], dtype=np.int64)
    offsets = np.zeros(len(materialized) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    values = (
        np.concatenate(materialized)
        if materialized and offsets[-1] > 0
        else np.empty(0, dtype=np.int64)
    )
    return CSR(offsets=offsets, values=values)


def csr_rows(csr: CSR) -> list[list[int]]:
    """Materialize a :class:`CSR` back into Python lists (tests/debugging)."""
    return [csr.row(r).tolist() for r in range(csr.n_rows)]


def segment_sum(values: np.ndarray, segment_ids: np.ndarray, n_segments: int) -> np.ndarray:
    """Scatter-add ``values`` into ``n_segments`` bins keyed by ``segment_ids``.

    This is the irregular reduction at the heart of the paper: ``rho[j] +=``
    and ``force[j] -=`` over a neighbor list.  1-D values go through
    ``np.add.at`` and 2-D ``(n, k)`` values through one ``np.bincount`` per
    column; both accumulate in input order from zero, so the sums are
    bit-identical.  Measured on NumPy 2.4.6, 57,344 values into 8,192 bins:
    1-D is on ``np.add.at``'s indexed fast path (0.06–0.11 ms, the same as
    bincount); 2-D has no such path (1.7–2.6 ms for three columns against
    0.25–0.55 ms column-wise).

    Raises
    ------
    IndexError
        if an id falls outside ``[0, n_segments)`` — ``np.add.at`` would
        wrap a negative id onto the last bins and ``np.bincount`` grow its
        output for a large one, crediting the wrong segment either way.
    """
    segment_ids = np.asarray(segment_ids)
    values = np.asarray(values)
    if segment_ids.ndim != 1:
        raise ValueError("segment_ids must be 1-D")
    if values.shape[:1] != segment_ids.shape:
        raise ValueError(
            f"values first axis {values.shape[:1]} must match segment_ids {segment_ids.shape}"
        )
    if values.ndim not in (1, 2):
        raise ValueError("values must be 1-D or 2-D")
    if len(segment_ids):
        lo, hi = int(segment_ids.min()), int(segment_ids.max())
        if lo < 0 or hi >= n_segments:
            raise IndexError(
                f"segment id {lo if lo < 0 else hi} is outside the valid "
                f"range [0, {n_segments})"
            )
    if values.ndim == 1:
        out = np.zeros(n_segments)
        np.add.at(out, segment_ids, values)
        return out
    out = np.empty((n_segments, values.shape[1]))
    for k in range(values.shape[1]):
        out[:, k] = np.bincount(
            segment_ids, weights=values[:, k], minlength=n_segments
        )
    return out


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse of a permutation array: ``inv[perm[i]] == i``.

    Used by the data-reordering pass to remap neighbor indices after atoms
    are spatially sorted.
    """
    perm = np.asarray(perm, dtype=np.int64)
    if perm.ndim != 1:
        raise ValueError("perm must be 1-D")
    n = len(perm)
    inv = np.empty(n, dtype=np.int64)
    check = np.zeros(n, dtype=bool)
    check[perm] = True
    if not check.all():
        raise ValueError("perm is not a permutation of 0..n-1")
    inv[perm] = np.arange(n, dtype=np.int64)
    return inv

"""Lightweight argument validation helpers.

The engine validates at API boundaries (construction time, harness entry
points) and stays check-free inside hot kernels; these helpers keep the
boundary checks terse and the error messages uniform.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative if not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_shape(array: np.ndarray, shape: Sequence[Any], name: str) -> np.ndarray:
    """Validate an array's shape.

    ``shape`` entries may be ``None`` to accept any extent along that axis.
    """
    actual = array.shape
    if len(actual) != len(shape):
        raise ValueError(
            f"{name} must have {len(shape)} dimensions, got shape {actual}"
        )
    for axis, (want, got) in enumerate(zip(shape, actual)):
        if want is not None and want != got:
            raise ValueError(
                f"{name} has shape {actual}; expected extent {want} on axis {axis}"
            )
    return array


def check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that every element of ``array`` is finite (names the first not)."""
    bad = ~np.isfinite(array)
    if bad.any():
        first = tuple(int(k) for k in np.argwhere(bad)[0])
        raise ValueError(
            f"{name} contains {int(bad.sum())} non-finite element(s), "
            f"first at index {first}"
        )
    return array

"""Boundary-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_finite,
    check_positive,
    check_shape,
    require,
)


def test_require_passes_and_fails():
    require(True, "fine")
    with pytest.raises(ValueError, match="broken"):
        require(False, "broken")


def test_check_positive_strict():
    assert check_positive(1.0, "x") == 1.0
    with pytest.raises(ValueError):
        check_positive(0.0, "x")


def test_check_positive_non_strict_allows_zero():
    assert check_positive(0.0, "x", strict=False) == 0.0
    with pytest.raises(ValueError):
        check_positive(-1.0, "x", strict=False)


def test_check_shape_exact():
    arr = np.zeros((3, 2))
    assert check_shape(arr, (3, 2), "arr") is arr


def test_check_shape_wildcard():
    check_shape(np.zeros((7, 3)), (None, 3), "arr")


def test_check_shape_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        check_shape(np.zeros(3), (3, 1), "arr")


def test_check_shape_extent_mismatch():
    with pytest.raises(ValueError, match="axis 1"):
        check_shape(np.zeros((3, 2)), (3, 4), "arr")


def test_check_finite_accepts_finite():
    arr = np.ones(4)
    assert check_finite(arr, "arr") is arr


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_rejects(bad):
    with pytest.raises(ValueError, match=r"1 non-finite .* first at index \(1,\)"):
        check_finite(np.array([1.0, bad]), "arr")

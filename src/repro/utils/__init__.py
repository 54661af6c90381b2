"""Shared low-level utilities: CSR arrays, validation, RNG, counting."""

from repro.utils.arrays import (
    CSR,
    csr_from_lists,
    csr_rows,
    invert_permutation,
    segment_sum,
)
from repro.utils.rng import default_rng, spawn_rngs
from repro.utils.timers import Counter, median_iqr
from repro.utils.validation import (
    check_finite,
    check_positive,
    check_shape,
    require,
)

__all__ = [
    "CSR",
    "csr_from_lists",
    "csr_rows",
    "invert_permutation",
    "segment_sum",
    "default_rng",
    "spawn_rngs",
    "Counter",
    "median_iqr",
    "check_finite",
    "check_positive",
    "check_shape",
    "require",
]

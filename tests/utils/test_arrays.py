"""CSR container and segment arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.arrays import (
    CSR,
    csr_from_lists,
    csr_rows,
    invert_permutation,
    segment_sum,
)


class TestCSR:
    def test_round_trip_through_lists(self):
        rows = [[1, 2], [], [0, 5, 7]]
        csr = csr_from_lists(rows)
        assert csr_rows(csr) == rows

    def test_n_rows_and_values(self):
        csr = csr_from_lists([[1], [2, 3]])
        assert csr.n_rows == 2
        assert csr.n_values == 3

    def test_row_is_view(self):
        csr = csr_from_lists([[4, 5], [6]])
        row = csr.row(0)
        assert row.base is csr.values or row.base is csr.values.base

    def test_row_lengths(self):
        csr = csr_from_lists([[1, 2, 3], [], [9]])
        assert csr.row_lengths().tolist() == [3, 0, 1]

    def test_row_of_value_expansion(self):
        csr = csr_from_lists([[1, 2], [], [3]])
        assert csr.row_of_value().tolist() == [0, 0, 2]

    def test_empty_rows_structure(self):
        csr = csr_from_lists([[], [], []])
        assert csr.n_rows == 3
        assert csr.n_values == 0

    def test_no_rows(self):
        csr = csr_from_lists([])
        assert csr.n_rows == 0

    def test_equality_is_structural(self):
        a = csr_from_lists([[1], [2]])
        b = csr_from_lists([[1], [2]])
        c = csr_from_lists([[1], [3]])
        assert a == b
        assert a != c

    def test_hash_consistent_with_equality(self):
        a = csr_from_lists([[1], [2]])
        b = csr_from_lists([[1], [2]])
        assert hash(a) == hash(b)

    def test_iteration_yields_rows(self):
        csr = csr_from_lists([[1], [2, 3]])
        assert [r.tolist() for r in csr] == [[1], [2, 3]]

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(ValueError):
            CSR(offsets=np.array([0, 2, 1]), values=np.array([1]))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            CSR(offsets=np.array([1, 2]), values=np.array([1, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CSR(offsets=np.array([0, 3]), values=np.array([1]))

    def test_rejects_empty_offsets(self):
        with pytest.raises(ValueError):
            CSR(offsets=np.empty(0, dtype=np.int64), values=np.empty(0))

    @given(
        st.lists(
            st.lists(st.integers(0, 100), max_size=8), max_size=12
        )
    )
    @settings(max_examples=50)
    def test_round_trip_property(self, rows):
        assert csr_rows(csr_from_lists(rows)) == rows


class TestSegmentSum:
    def test_basic_1d(self):
        out = segment_sum(
            np.array([1.0, 2.0, 3.0]), np.array([0, 0, 2]), 3
        )
        assert out.tolist() == [3.0, 0.0, 3.0]

    def test_2d_per_column(self):
        values = np.array([[1.0, 10.0], [2.0, 20.0]])
        out = segment_sum(values, np.array([1, 1]), 2)
        assert out.tolist() == [[0.0, 0.0], [3.0, 30.0]]

    def test_matches_add_at(self, rng):
        ids = rng.integers(0, 50, size=500)
        values = rng.normal(size=500)
        expected = np.zeros(50)
        np.add.at(expected, ids, values)
        assert np.allclose(segment_sum(values, ids, 50), expected)

    def test_empty_input(self):
        out = segment_sum(np.empty(0), np.empty(0, dtype=int), 4)
        assert out.tolist() == [0.0] * 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segment_sum(np.ones(3), np.zeros(2, dtype=int), 2)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            segment_sum(np.ones((2, 2, 2)), np.zeros(2, dtype=int), 2)

    @given(
        n_segments=st.integers(1, 12),
        n_values=st.integers(0, 60),
        k=st.sampled_from([1, 3, 5]),
        layout=st.sampled_from(["C", "F", "strided"]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_2d_equals_add_at_exactly(self, n_segments, n_values, k, layout, seed):
        """Column-wise bincount accumulates in the same order as
        ``np.add.at``: equal to the last bit, whatever the memory layout."""
        rng = np.random.default_rng(seed)
        # few bins, many values: every id repeats
        ids = rng.integers(0, n_segments, size=n_values)
        if layout == "strided":
            values = (rng.normal(size=(2 * n_values, 2 * k)) * 1e3)[::2, ::2]
        else:
            values = np.array(rng.normal(size=(n_values, k)) * 1e3, order=layout)
        expected = np.zeros((n_segments, k))
        np.add.at(expected, ids, values)
        out = segment_sum(values, ids, n_segments)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("values", [np.ones(2), np.ones((2, 3))])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_id_raises_naming_it(self, values, bad):
        """-1 used to wrap onto the last bin without a trace."""
        with pytest.raises(IndexError, match=rf"segment id {bad} "):
            segment_sum(values, np.array([bad, 0]), 4)


class TestInvertPermutation:
    def test_identity(self):
        perm = np.arange(5)
        assert invert_permutation(perm).tolist() == list(range(5))

    def test_inverse_property(self, rng):
        perm = rng.permutation(64)
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(64))
        assert np.array_equal(inv[perm], np.arange(64))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            invert_permutation(np.array([0, 0, 2]))

    @given(st.integers(1, 64), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_double_inverse_is_identity(self, n, seed):
        perm = np.random.default_rng(seed).permutation(n)
        assert np.array_equal(
            invert_permutation(invert_permutation(perm)), perm
        )

"""Cell-list binning and vectorized range concatenation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.box import Box
from repro.md.neighbor.cells import (
    FORWARD_OFFSETS,
    CellList,
    build_cell_list,
    concat_ranges,
)


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([0, 10]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_zero_lengths_skipped(self):
        out = concat_ranges(np.array([5, 7, 9]), np.array([0, 2, 0]))
        assert out.tolist() == [7, 8]

    def test_empty(self):
        assert concat_ranges(np.array([], dtype=int), np.array([], dtype=int)).size == 0

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            concat_ranges(np.array([0]), np.array([-1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            concat_ranges(np.array([0, 1]), np.array([1]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 10)), max_size=20
        )
    )
    @settings(max_examples=50)
    def test_matches_python_loop(self, pairs):
        starts = np.array([p[0] for p in pairs], dtype=np.int64)
        lengths = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = [v for s, l in pairs for v in range(s, s + l)]
        assert concat_ranges(starts, lengths).tolist() == expected


@pytest.fixture()
def cells(rng):
    box = Box((12.0, 12.0, 12.0))
    positions = rng.uniform(0, 12, size=(300, 3))
    return build_cell_list(positions, box, min_cell_size=3.0), positions, box


class TestBuildCellList:
    def test_cell_count(self, cells):
        cl, _, _ = cells
        assert cl.n_cells == (4, 4, 4)
        assert cl.n_total_cells == 64

    def test_every_atom_binned_once(self, cells):
        cl, positions, _ = cells
        assert cl.counts().sum() == len(positions)
        assert sorted(cl.order.tolist()) == list(range(len(positions)))

    def test_atoms_in_cell_consistent_with_assignment(self, cells):
        cl, _, _ = cells
        for cell_id in range(cl.n_total_cells):
            for atom in cl.atoms_in_cell(cell_id):
                assert cl.cell_of_atom[atom] == cell_id

    def test_atoms_geometrically_inside_their_cell(self, cells):
        cl, positions, box = cells
        coords = cl.cell_coords(cl.cell_of_atom)
        lo = coords * cl.cell_size
        hi = lo + cl.cell_size
        wrapped = box.wrap(positions)
        assert np.all(wrapped >= lo - 1e-9)
        assert np.all(wrapped <= hi + 1e-9)

    def test_min_cell_size_respected(self, cells):
        cl, _, _ = cells
        assert np.all(cl.cell_size >= 3.0 - 1e-12)

    def test_short_axis_gets_single_cell(self):
        box = Box((2.0, 12.0, 12.0))
        cl = build_cell_list(np.zeros((1, 3)), box, min_cell_size=3.0)
        assert cl.n_cells[0] == 1

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            build_cell_list(np.zeros((1, 3)), Box((5, 5, 5)), min_cell_size=0.0)

    def test_flat_and_coords_roundtrip(self, cells):
        cl, _, _ = cells
        ids = np.arange(cl.n_total_cells)
        assert np.array_equal(cl.flat_ids(cl.cell_coords(ids)), ids)


class TestCellCountSnap:
    """Regression: FP noise in box.length / min_cell_size lost a whole cell.

    When the edge is an exact multiple of the cell size but the division
    lands at ``k - epsilon`` (e.g. ``(0.1 * 3) * 10 / 1.0``), a bare
    ``floor`` dropped one cell per axis — coarser binning and a different
    SDC decomposition than geometry dictates.
    """

    def test_exact_multiple_with_fp_noise(self):
        # 3 * 0.7 = 2.0999999999999996, so 2.1 / 0.7 = 2.9999999999999996:
        # a bare floor binned this box 2x2x2 instead of 3x3x3
        edge = 3 * 0.7
        box = Box((edge, edge, edge))
        cl = build_cell_list(np.zeros((1, 3)), box, min_cell_size=0.7)
        assert cl.n_cells == (3, 3, 3)

    def test_larger_grid_with_fp_noise(self):
        # 7 * 1.3 = 9.1 and 9.1 / 1.3 = 6.999999999999999 -> must snap to 7
        edge = 7 * 1.3
        box = Box((edge, edge, edge))
        cl = build_cell_list(np.zeros((1, 3)), box, min_cell_size=1.3)
        assert cl.n_cells == (7, 7, 7)

    def test_pins_paper_case_grid(self):
        # bcc-Fe demo box: 16 cells of a=2.8665 -> 45.864 over reach 3.9
        # gives exactly floor(11.76) = 11 cells; the snap must not round up
        edge = 16 * 2.8665
        box = Box((edge, edge, edge))
        cl = build_cell_list(np.zeros((1, 3)), box, min_cell_size=3.9)
        assert cl.n_cells == (11, 11, 11)

    def test_ratio_below_integer_still_floors(self):
        # 10.0 / 3.0 = 3.33... is nowhere near an integer: plain floor
        cl = build_cell_list(
            np.zeros((1, 3)), Box((10.0, 10.0, 10.0)), min_cell_size=3.0
        )
        assert cl.n_cells == (3, 3, 3)

    def test_snapped_cells_never_smaller_than_tolerance(self):
        edge = 3 * 0.7
        box = Box((edge, edge, edge))
        cl = build_cell_list(np.zeros((1, 3)), box, min_cell_size=0.7)
        # the snap may make cells relatively smaller by at most ~1e-9
        assert np.all(cl.cell_size >= 0.7 * (1 - 1e-8))


def stencil_rows(cl):
    """Flatten ``forward_stencil`` into ``(src, dst, image)`` tuples."""
    rows = []
    for src, dst, shift in cl.forward_stencil():
        images = np.rint(shift / cl.box.lengths).astype(int)
        rows += zip(src.tolist(), dst.tolist(), map(tuple, images.tolist()))
    return rows


class TestNeighborCellPairs:
    """The forward half stencil that feeds the pair generator."""

    def test_counts_in_big_grid(self, cells):
        cl, _, _ = cells
        rows = stencil_rows(cl)
        # 4x4x4 periodic: 13 forward neighbours per cell, all distinct cells,
        # and with the 64 cell interiors that is each unordered pair of
        # stencil-adjacent cells once: (27 * 64 - 64) / 2
        assert len(rows) == 13 * 64
        unordered = {(min(s, d), max(s, d)) for s, d, _ in rows}
        assert len(unordered) == len(rows) == (27 * 64 - 64) // 2
        # a shift appears exactly where the step left the box
        coords = cl.cell_coords(np.arange(64))
        for (s, d, image), offset in zip(rows, np.repeat(FORWARD_OFFSETS, 64, axis=0)):
            assert tuple((coords[s] + offset) // 4) == image
            assert tuple((coords[s] + offset) % 4) == tuple(coords[d])

    def test_deduplicated_on_tiny_grid(self):
        box = Box((5.0, 5.0, 5.0))
        cl = build_cell_list(np.zeros((1, 3)), box, min_cell_size=2.5)
        rows = stencil_rows(cl)
        # 2x2x2 periodic grid: +1 and -1 reach the same cell through
        # different images, so no (cell pair, image) may come up twice in
        # either orientation, and with the mirrored rows the 26 non-zero
        # image steps of every cell are all there
        assert len(rows) == 13 * 8
        mirrored = [(d, s, tuple(-i for i in im)) for s, d, im in rows]
        assert len(set(rows + mirrored)) == 26 * 8

    def test_single_cell_grid_self_pair(self):
        positions = np.zeros((1, 3))
        open_box = Box((2.0, 2.0, 2.0), periodic=(False, False, False))
        assert stencil_rows(build_cell_list(positions, open_box, 3.0)) == []
        # one periodic cell is its own neighbour through 13 distinct
        # non-zero images (the other 13 are their mirrors)
        rows = stencil_rows(build_cell_list(positions, Box((2.0, 2.0, 2.0)), 3.0))
        assert [(s, d) for s, d, _ in rows] == [(0, 0)] * 13
        assert [im for _, _, im in rows] == list(FORWARD_OFFSETS)

    def test_open_boundary_clips(self):
        box = Box((9.0, 9.0, 9.0), periodic=(False, False, False))
        cl = build_cell_list(np.zeros((1, 3)), box, min_cell_size=3.0)
        rows = stencil_rows(cl)
        assert all(image == (0, 0, 0) for _, _, image in rows)
        # forward + backward neighbours per cell: a corner cell has 7,
        # the centre cell all 26
        degree = np.bincount([s for s, _, _ in rows] + [d for _, d, _ in rows])
        assert degree.min() == 7
        assert degree.max() == 26
        assert len(rows) == degree.sum() // 2 == 158


class TestNonFinitePositions:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_named_atom_error(self, bad):
        positions = np.full((5, 3), 1.0)
        positions[3, 1] = bad
        with pytest.raises(ValueError, match=r"first at index \(3, 1\)"):
            build_cell_list(positions, Box((9.0, 9.0, 9.0)), min_cell_size=3.0)

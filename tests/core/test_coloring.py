"""Subdomain coloring: propriety and balance."""

import numpy as np
import pytest

from repro.core.coloring import (
    Coloring,
    lattice_coloring,
    validate_coloring,
)
from repro.core.domain import decompose
from repro.geometry.box import Box


@pytest.fixture(params=[1, 2, 3])
def grid(request):
    return decompose(Box((70.0, 70.0, 70.0)), reach=3.9, dims=request.param)


class TestLatticeColoring:
    def test_color_count_is_two_to_dims(self, grid):
        coloring = lattice_coloring(grid)
        assert coloring.n_colors == 2 ** grid.dimensionality

    def test_proper_coloring(self, grid):
        validate_coloring(grid, lattice_coloring(grid))

    def test_classes_exactly_balanced(self, grid):
        coloring = lattice_coloring(grid)
        assert coloring.is_balanced()

    def test_members_partition_all_subdomains(self, grid):
        coloring = lattice_coloring(grid)
        all_members = np.concatenate(
            [coloring.members(c) for c in range(coloring.n_colors)]
        )
        assert sorted(all_members.tolist()) == list(range(grid.n_subdomains))

    def test_1d_alternation(self):
        grid = decompose(Box((70.0, 20.0, 20.0)), reach=3.9, dims=1, axes=[0])
        coloring = lattice_coloring(grid)
        # along the decomposed axis colors alternate 0,1,0,1,...
        assert coloring.color_of.tolist() == [
            k % 2 for k in range(grid.n_subdomains)
        ]


class TestValidateColoring:
    def test_detects_improper_coloring(self, grid):
        bad = Coloring(
            color_of=np.zeros(grid.n_subdomains, dtype=np.int64), n_colors=1
        )
        with pytest.raises(ValueError, match="share color"):
            validate_coloring(grid, bad)

    def test_detects_size_mismatch(self, grid):
        bad = Coloring(color_of=np.zeros(1, dtype=np.int64), n_colors=1)
        with pytest.raises(ValueError, match="covers"):
            validate_coloring(grid, bad)


class TestColoringContainer:
    def test_rejects_out_of_range_colors(self):
        with pytest.raises(ValueError):
            Coloring(color_of=np.array([0, 2]), n_colors=2)

    def test_rejects_bad_n_colors(self):
        with pytest.raises(ValueError):
            Coloring(color_of=np.array([0]), n_colors=0)

    def test_class_sizes(self):
        coloring = Coloring(color_of=np.array([0, 1, 0, 1, 0]), n_colors=2)
        assert coloring.class_sizes().tolist() == [3, 2]
        assert not coloring.is_balanced()

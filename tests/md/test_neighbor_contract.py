"""The neighbour builder's contract: exact agreement with the O(N^2) oracle.

One property suite over everything the half-stencil generator has to get
right — periodicity masks, grids straddling the 1/2/3/4-cell thresholds,
atoms on cell and box faces, empty cells, reused coarser grids, open
boxes with atoms on their faces — plus the input validation
(``cells=`` consistency, non-finite positions) and a memory guard.

Every case runs on each kernel tier that runs here: the NumPy generator
always, the C one wherever it builds.  Their CSRs must be byte-identical,
``offsets`` and ``values``, on every case.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.geometry.box import Box
from repro.harness.workloads import crystal_slab, crystal_with_void, uniform_crystal
from repro.md.neighbor.cells import build_cell_list
from repro.md.neighbor.verlet import (
    brute_force_neighbor_list,
    build_neighbor_list,
    full_from_half,
    half_from_full,
)
from repro.utils.rng import default_rng

#: L / reach per axis: just past the minimum-image limit (2 cells), mid
#: 2-cell, exactly / just past / just short of the 3- and 4-cell thresholds
PERIODIC_RATIOS = (2 + 1e-7, 2.5, 3.0, 3 + 1e-7, 3.999999, 4.2)
#: an open axis may also be thinner than the reach (a single cell)
OPEN_RATIOS = PERIODIC_RATIOS + (0.6,)


@pytest.fixture(scope="module")
def tiers():
    """The NumPy tier, and the C tier wherever it builds."""
    return [kernels.get(name) for name in kernels.available_tiers()]


@pytest.fixture()
def c_tier(tiers):
    if tiers[-1].name != "c":
        pytest.skip(f"C tier unavailable: {kernels.tier_status()['c']['reason']}")
    return tiers[-1]


def assert_bytes_equal(got, want):
    """Two CSRs byte for byte: dtypes, ``offsets`` and ``values``."""
    for a, b in ((got.offsets, want.offsets), (got.values, want.values)):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()


def on_each_tier(tiers, build):
    """``build()`` under every tier; their lists' CSRs byte-identical.
    Returns the NumPy tier's list."""
    lists = []
    for tier in tiers:
        with kernels.use_tier(tier):
            lists.append(build())
    for other in lists[1:]:
        assert_bytes_equal(other.csr, lists[0].csr)
    return lists[0]


def raises_on_each_tier(tiers, build, match):
    for tier in tiers:
        with kernels.use_tier(tier), pytest.raises(ValueError, match=match):
            build()


@st.composite
def systems(draw):
    """(positions, box, cutoff, skin) covering the builder's edge geometry."""
    periodic = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    cutoff = draw(st.sampled_from((0.9, 1.3, 2.0)))
    skin = draw(st.sampled_from((0.0, 0.1, 0.3)))
    reach = cutoff + skin
    ratios = [
        draw(st.sampled_from(PERIODIC_RATIOS if p else OPEN_RATIOS)) for p in periodic
    ]
    box = Box(reach * np.array(ratios), periodic=periodic)
    n = draw(st.one_of(st.sampled_from((0, 1, 2)), st.integers(3, 70)))
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    fractional = rng.uniform(0.0, 1.0, size=(n, 3))
    if draw(st.booleans()):
        # non-uniform density: squeeze everything into one octant-ish clump,
        # leaving most cells empty
        fractional *= draw(st.sampled_from((0.3, 0.55)))
    # open axes may hold atoms beyond the nominal faces
    outside = rng.uniform(-0.2, 1.2, size=(n, 3))
    fractional = np.where(periodic, fractional, outside)
    positions = fractional * box.lengths
    # snap some components onto cell faces (box faces included: k = 0, n)
    n_cells = build_cell_list(np.zeros((1, 3)), box, reach).n_cells
    faces = rng.integers(0, np.array(n_cells) + 1, size=(n, 3)) * (
        box.lengths / n_cells
    )
    snap = rng.uniform(size=(n, 3)) < draw(st.sampled_from((0.0, 0.3)))
    return np.where(snap, faces, positions), box, cutoff, skin


@given(system=systems())
@settings(max_examples=150, deadline=None)
def test_builder_matches_brute_force(tiers, system):
    positions, box, cutoff, skin = system
    reach = cutoff + skin
    # a pair sitting on the reach sphere to the last bit is decided by
    # rounding order, which the two builders need not share (the tiers do:
    # they are compared before this filter)
    half, full = (
        on_each_tier(
            tiers,
            lambda h=h: build_neighbor_list(positions, box, cutoff, skin, half=h),
        )
        for h in (True, False)
    )
    distance = box.distance(positions[:, None, :], positions[None, :, :])
    assume(not np.any(np.abs(distance - reach) < 1e-9 * reach))

    assert half.csr == brute_force_neighbor_list(positions, box, cutoff, skin).csr
    i_idx, j_idx = half.pair_arrays()
    assert np.all(i_idx < j_idx)
    assert all(np.all(np.diff(row) > 0) for row in half.csr)

    assert full.csr == on_each_tier(tiers, lambda: full_from_half(half)).csr
    assert (
        full.csr
        == brute_force_neighbor_list(positions, box, cutoff, skin, half=False).csr
    )


@pytest.mark.parametrize(
    "atoms",
    [
        crystal_with_void(6, void_fraction=0.3, seed=4),
        crystal_slab(5, 3, vacuum_factor=3.0, seed=4),
    ],
    ids=["void", "slab"],
)
def test_empty_cells_and_free_surfaces(tiers, atoms):
    fast = on_each_tier(
        tiers,
        lambda: build_neighbor_list(atoms.positions, atoms.box, cutoff=3.6, skin=0.3),
    )
    slow = brute_force_neighbor_list(atoms.positions, atoms.box, cutoff=3.6, skin=0.3)
    assert np.any(build_cell_list(atoms.positions, atoms.box, 3.9).counts() == 0)
    assert fast.csr == slow.csr


def test_open_box_with_atoms_on_the_faces(tiers):
    """An open box with atoms exactly ``pad`` inside its faces."""
    reach = 3.9
    inner = np.array([11.0, 9.0, 23.0])
    pad = 1e-9 * (1.0 + 23.0)
    box = Box(inner + 2.0 * (reach + pad), periodic=(False, False, False))
    rng = default_rng(12)
    positions = pad + rng.uniform(0.0, 1.0, size=(500, 3)) * (box.lengths - 2 * pad)
    face = np.where(rng.uniform(size=(500, 3)) < 0.5, pad, box.lengths - pad)
    positions = np.where(rng.uniform(size=(500, 3)) < 0.1, face, positions)
    fast = on_each_tier(
        tiers, lambda: build_neighbor_list(positions, box, cutoff=3.6, skin=0.3)
    )
    assert fast.csr == brute_force_neighbor_list(positions, box, 3.6, 0.3).csr


class TestReusedCells:
    """``cells=`` feeds the same generator — and is checked before use."""

    @pytest.fixture()
    def gas(self):
        rng = default_rng(5)
        return rng.uniform(0.0, 20.0, size=(500, 3)), Box((20.0, 20.0, 20.0))

    def test_coarser_grid_with_one_cell_periodic_axis(self, tiers):
        rng = default_rng(8)
        box = Box((9.0, 20.0, 20.0))
        positions = rng.uniform(0.0, 1.0, size=(300, 3)) * box.lengths
        coarse = build_cell_list(positions, box, min_cell_size=9.0)
        assert coarse.n_cells == (1, 2, 2)
        for half in (True, False):
            reused = on_each_tier(
                tiers,
                lambda: build_neighbor_list(
                    positions, box, cutoff=2.0, skin=0.2, half=half, cells=coarse
                ),
            )
            fresh = on_each_tier(
                tiers,
                lambda: build_neighbor_list(
                    positions, box, cutoff=2.0, skin=0.2, half=half
                ),
            )
            assert reused.csr == fresh.csr
        assert fresh.csr == brute_force_neighbor_list(
            positions, box, 2.0, 0.2, half=False
        ).csr

    def test_cells_smaller_than_reach_rejected(self, tiers, gas):
        # parent commit: 2,652 pairs instead of 3,797, no error
        positions, box = gas
        fine = build_cell_list(positions, box, min_cell_size=2.0)
        raises_on_each_tier(
            tiers,
            lambda: build_neighbor_list(
                positions, box, cutoff=3.6, skin=0.3, cells=fine
            ),
            "below cutoff\\+skin",
        )

    def test_cells_of_other_positions_rejected(self, tiers, gas):
        # parent commit: 806 pairs instead of 3,797, no error
        positions, box = gas
        other = build_cell_list(positions[::-1], box, min_cell_size=3.9)
        raises_on_each_tier(
            tiers,
            lambda: build_neighbor_list(
                positions, box, cutoff=3.6, skin=0.3, cells=other
            ),
            "does not bin these positions",
        )

    def test_cells_of_other_atom_count_rejected(self, tiers, gas):
        positions, box = gas
        fewer = build_cell_list(positions[:-1], box, min_cell_size=3.9)
        raises_on_each_tier(
            tiers,
            lambda: build_neighbor_list(
                positions, box, cutoff=3.6, skin=0.3, cells=fewer
            ),
            "499 atoms but positions has 500",
        )

    @pytest.mark.parametrize(
        "other_box",
        [
            Box((20.0, 20.0, 20.5)),
            Box((20.0, 20.0, 20.0), periodic=(True, True, False)),
        ],
        ids=["lengths", "periodicity"],
    )
    def test_cells_of_other_box_rejected(self, tiers, gas, other_box):
        positions, box = gas
        cells = build_cell_list(positions, other_box, min_cell_size=3.9)
        raises_on_each_tier(
            tiers,
            lambda: build_neighbor_list(
                positions, box, cutoff=3.6, skin=0.3, cells=cells
            ),
            "different box",
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_position_named(tiers, bad):
    # parent commit: 3,771 of 3,797 pairs and only a RuntimeWarning
    rng = default_rng(5)
    positions = rng.uniform(0.0, 20.0, size=(500, 3))
    positions[123, 0] = bad
    positions[400, 2] = bad
    raises_on_each_tier(
        tiers,
        lambda: build_neighbor_list(
            positions, Box((20.0, 20.0, 20.0)), cutoff=3.6, skin=0.3
        ),
        r"2 non-finite .* first at index \(123, 0\)",
    )


def test_build_peak_memory_bounded(tiers):
    """Chunking by stencil offset keeps the NumPy walk's temporaries near
    1/14 of the candidates; the C walk holds the list and its pair buffers.

    8,192 atoms: the one-shot full-stencil builder peaked at 53.8 MiB.
    """
    atoms = uniform_crystal(16, perturbation=0.05, seed=1)
    for tier in tiers:
        tracemalloc.start()
        try:
            with kernels.use_tier(tier):
                nlist = build_neighbor_list(
                    atoms.positions, atoms.box, cutoff=3.6, skin=0.3
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nlist.n_pairs == 57344
        assert peak <= 16 * 2**20, tier.name


@pytest.mark.parametrize("n_cells", [16, 30], ids=["8192", "54000"])
def test_c_and_numpy_lists_byte_identical_at_scale(tiers, c_tier, n_cells):
    atoms = uniform_crystal(n_cells, perturbation=0.05, seed=1)
    for half in (True, False):
        nlist = on_each_tier(
            tiers,
            lambda: build_neighbor_list(
                atoms.positions, atoms.box, cutoff=3.6, skin=0.3, half=half
            ),
        )
        assert nlist.n_pairs == 7 * atoms.n_atoms * (1 if half else 2)
        converted = on_each_tier(
            tiers, lambda: (full_from_half if half else half_from_full)(nlist)
        )
        assert converted.n_pairs == 7 * atoms.n_atoms * (2 if half else 1)


def test_clump_across_cell_faces_grows_the_c_buffer(tiers, c_tier, monkeypatch):
    """200 atoms within 1.5 Å of a corner shared by 8 cells, in a gas: the
    first call's capacity, guessed from per-cell densities, is short, so
    the build calls C a second time with room for every pair."""
    calls = []
    real = c_tier._c_build

    def spy(*args):
        need = real(*args)
        calls.append((args[9], need))  # (capacity handed, pairs found)
        return need

    monkeypatch.setattr(c_tier, "_c_build", spy)
    rng = default_rng(3)
    box = Box((20.0, 20.0, 20.0))
    direction = rng.normal(size=(200, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    clump = 8.0 + direction * 1.5 * rng.uniform(size=(200, 1)) ** (1 / 3)
    positions = np.vstack([clump, rng.uniform(0.0, 20.0, size=(300, 3))])
    nlist = on_each_tier(
        tiers, lambda: build_neighbor_list(positions, box, cutoff=3.6, skin=0.3)
    )
    assert nlist.csr == brute_force_neighbor_list(positions, box, 3.6, 0.3).csr
    (first_cap, need), (second_cap, again) = calls
    assert need > first_cap and need >= 200 * 199 // 2
    assert second_cap == again == need == nlist.n_pairs

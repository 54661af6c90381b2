"""The C tier's Johnson terms in SIMD lanes, against the NumPy tier.

``eam.c`` evaluates ``JohnsonFePotential.pair_terms`` in branch-free
blocks with an ``exp`` of its own (``johnson_block``, one clone per SIMD
width) and redoes a block with libm (``johnson_libm``) when an exponent's
argument is NaN or outside ``|x| < 700``.  Checked here through the public
slice entry points:

* every region of the switch — below ``r_switch``, exactly on it, inside
  it, exactly on ``r_cut`` and past it up to ``r_cut + skin`` — within
  1e-12 of each function's scale of NumPy, exact zeros from ``r_cut`` on;
* one distance gives the same bits at slot 0 and at the last slot of an
  odd-length slice, so the vector body and its scalar epilogue agree;
* a NaN distance and an exponent argument >= 700 give NumPy's outputs
  and NumPy's non-finite pattern.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.kernels.base import handover_arrays
from repro.kernels.numpy_tier import NumpyKernelTier
from repro.potentials.johnson_fe import JohnsonFePotential

POTENTIAL = JohnsonFePotential()
SKIN = 0.3
BOX = Box((20.0, 20.0, 20.0))


def pairs_at(r):
    """Atom 0 at the origin and partner k at ``(r[k], 0, 0)``: the slice's
    distances are ``r`` exactly (``sqrt(x * x) == |x|``)."""
    r = np.asarray(r, dtype=np.float64)
    positions = np.zeros((len(r) + 1, 3))
    positions[1:, 0] = r
    return (
        positions,
        np.zeros(len(r), dtype=np.int64),
        np.arange(1, len(r) + 1, dtype=np.int64),
    )


def terms(tier, potential, r):
    """``(phi, phi', V')`` and ``sum V`` of the slice at distances ``r``,
    through ``pair_pass``; the distances it handed over."""
    positions, i_idx, j_idx = pairs_at(r)
    handover = handover_arrays(len(r))
    phi, energy = tier.pair_pass(potential, positions, BOX, i_idx, j_idx, handover)
    _, distances, dphi, dv = handover
    return (phi, dphi, dv), energy, distances


def regions(potential=POTENTIAL):
    """Distances through the five regions of the switch, 301 of them: an
    odd count, past one 256-pair block."""
    below = np.linspace(2.0, potential.r_switch, 120, endpoint=False)
    inside = np.linspace(potential.r_switch, potential.r_cut, 120)[1:-1]
    beyond = np.linspace(potential.r_cut, potential.r_cut + SKIN, 60)[1:]
    return np.concatenate(
        [below, [potential.r_switch], inside, [potential.r_cut], beyond]
    )


def test_every_region_of_the_switch_matches_numpy(c_tier):
    r = regions()
    got, got_energy, distances = terms(c_tier, POTENTIAL, r)
    want, want_energy, _ = terms(NumpyKernelTier(), POTENTIAL, r)
    np.testing.assert_array_equal(distances, r)
    for name, a, b in zip(("phi", "phi'", "V'"), got, want):
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale, name
        # s = s' = 0 from r_cut on: exact zeros, as NumPy's clip gives
        assert np.all(a[r >= POTENTIAL.r_cut] == 0.0), name
    assert np.all(got[0][r < POTENTIAL.r_cut] > 0.0)
    assert abs(got_energy - want_energy) <= 1e-12 * abs(want_energy)


@pytest.mark.parametrize("n_pairs", [3, 77, 257])
@pytest.mark.parametrize("probe", [2.3, POTENTIAL.r_switch, 3.4, POTENTIAL.r_cut + 0.1])
def test_first_and_last_slot_give_the_same_bits(c_tier, n_pairs, probe):
    """The probe distance at slot 0 runs in a block's vector body, at the
    last slot of an odd-length slice in its scalar epilogue (or a block
    of one pair): every lane rounds as a scalar does."""
    r = np.linspace(2.1, POTENTIAL.r_cut + SKIN, n_pairs)
    r[0] = r[-1] = probe
    (phi, dphi, dv), _, _ = terms(c_tier, POTENTIAL, r)
    for values in (phi, dphi, dv):
        assert values[0].tobytes() == values[-1].tobytes()


def assert_same_pattern(got, want):
    """NaN, +inf and -inf in the same slots, finite values within 1e-12
    of their scale."""
    got, want = np.asarray(got), np.asarray(want)
    for test in (np.isnan, np.isposinf, np.isneginf):
        np.testing.assert_array_equal(test(got), test(want))
    finite = np.isfinite(want)
    if finite.any():
        scale = max(np.max(np.abs(want[finite])), 1e-300)
        assert np.max(np.abs(got[finite] - want[finite])) <= 1e-12 * scale


def test_nan_distance_takes_numpys_values(c_tier):
    """A NaN position poisons its pairs' terms, the slice's energy and the
    rows it scatters into — the same ones on both tiers."""
    positions, i_idx, j_idx = pairs_at(regions()[:70])
    positions[33, 1] = np.nan
    results = []
    for tier in (c_tier, NumpyKernelTier()):
        rho = np.zeros(len(positions))
        handover = handover_arrays(len(i_idx))
        energy = tier.density_slice(
            POTENTIAL, positions, BOX, i_idx, j_idx, rho, handover
        )
        results.append((rho, energy, handover[2], handover[3]))
    for got, want in zip(*results):
        assert_same_pattern(got, want)
    rho = results[0][0]
    assert np.isnan(rho[0]) and np.isnan(rho[33])
    assert np.isfinite(np.delete(rho, [0, 33])).all()


@pytest.mark.parametrize(
    "potential",
    [JohnsonFePotential(beta=900.0), JohnsonFePotential(a=400.0)],
    ids=["phi-exponent", "pair-exponent"],
)
def test_exponent_past_700_takes_numpys_values(c_tier, potential):
    """Short distances drive one exponent's argument past 700, where the
    block's exp does not hold: libm's redo gives NumPy's overflow."""
    r = np.concatenate([[0.5, 0.6], regions(potential)[::7]])
    got, got_energy, _ = terms(c_tier, potential, r)
    with np.errstate(over="ignore", invalid="ignore"):
        want, want_energy, _ = terms(NumpyKernelTier(), potential, r)
    assert not all(np.isfinite(w).all() for w in want)  # it did overflow
    for a, b in zip(got, want):
        assert_same_pattern(a, b)
    assert_same_pattern(got_energy, want_energy)

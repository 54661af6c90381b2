"""``EAMPotential.pair_terms``: one call, the four radial functions.

Every concrete potential in ``src/`` — the Johnson one-pass override, the
tabulated shared-locate override and the composed default — must return
what its four separate functions return, to 1e-12 of each function's
scale, with the *exact* zeros at and beyond the cutoff that keep forces
independent of the neighbour-list skin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.potentials  # noqa: F401  (registers every subclass)
from repro.potentials.base import EAMPotential
from repro.potentials.johnson_fe import JohnsonFePotential, fe_potential
from repro.potentials.tables import TabulatedEAM, tabulate


class ComposedFe(JohnsonFePotential):
    """Johnson's four functions under the base class's composition."""

    pair_terms = EAMPotential.pair_terms


POTENTIALS = {
    JohnsonFePotential: fe_potential(),
    TabulatedEAM: tabulate(fe_potential(), n_r=500, n_rho=200),
    ComposedFe: ComposedFe(),
}


def four_calls(potential, r):
    return (
        potential.density(r),
        potential.density_deriv(r),
        potential.pair_energy(r),
        potential.pair_energy_deriv(r),
    )


def test_every_potential_in_src_is_covered():
    """A new EAMPotential subclass must be added to ``POTENTIALS``."""

    def concrete(cls):
        for sub in cls.__subclasses__():
            yield from concrete(sub)
            if sub.__module__.startswith("repro."):
                yield sub

    assert set(concrete(EAMPotential)) <= set(POTENTIALS)


@pytest.mark.parametrize("kind", POTENTIALS, ids=lambda kind: kind.__name__)
class TestPairTerms:
    @settings(max_examples=60, deadline=None)
    @given(
        r=hnp.arrays(
            np.float64,
            st.integers(1, 200),
            elements=st.floats(0.6, 4.5, allow_nan=False),
        )
    )
    def test_matches_the_four_calls(self, kind, r):
        potential = POTENTIALS[kind]
        # the scale of each function over the physical range, so a value
        # next to a zero crossing (V near 2.05 Å, V' at re) is not held to
        # a relative bound it cannot meet
        grid = np.linspace(1.5, potential.cutoff, 400)
        for got, want, ref in zip(
            potential.pair_terms(r),
            four_calls(potential, r),
            four_calls(potential, grid),
        ):
            assert got.shape == r.shape and got.dtype == np.float64
            scale = np.max(np.abs(ref))
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(scale, np.abs(want)))

    def test_exact_zeros_at_and_beyond_the_cutoff(self, kind):
        potential = POTENTIALS[kind]
        rc = potential.cutoff
        r = np.array([rc, np.nextafter(rc, np.inf), rc + 1e-9, rc + 0.3, 2 * rc, 1e6])
        for got, want in zip(potential.pair_terms(r), four_calls(potential, r)):
            # (a natural spline's end value *at* r_cut is ~1e-19, not 0, in
            # the four calls too: the same zeros, and all zeros past it)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.all(got[2:] == 0.0)


def test_cutoff_consistency_guard_covers_pair_terms():
    class Leaky(JohnsonFePotential):
        def pair_terms(self, r):
            phi, dphi, v, dv = super().pair_terms(r)
            return phi, dphi, v + 1e-30, dv

    fe_potential().check_cutoff_consistency()
    ComposedFe().check_cutoff_consistency()
    with pytest.raises(ValueError, match=r"pair_terms\(\)\[2\]"):
        Leaky().check_cutoff_consistency()


def test_johnson_switch_is_exact_up_to_r_switch():
    """``s = 1, s' = 0`` exactly: below ``r_switch`` the one-pass terms are
    the unswitched functions, bit for bit in ``phi`` and ``V``."""
    potential = fe_potential()
    r = np.array([1.8, 2.4825, 2.8665, np.nextafter(3.2, 0.0), potential.r_switch])
    phi, dphi, v, dv = potential.pair_terms(r)
    dr = r - potential.re
    slope = -potential.beta / potential.re
    raw = potential.fe * np.exp(slope * dr)
    e2 = np.exp(-potential.a * dr)
    raw_v = potential.D * (e2 * e2 - 2.0 * e2)
    assert np.array_equal(phi, raw)
    assert np.array_equal(dphi, slope * raw)
    assert np.array_equal(v, raw_v)
    assert np.array_equal(dv, 2.0 * potential.a * potential.D * (e2 - e2 * e2))

"""The tier registry: resolution, selection surfaces, fallback contract."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import kernels
from repro.kernels import KernelTierWarning
from repro.kernels.numpy_tier import NumpyKernelTier
from repro.md import EAMCalculator


def _no_tier_warnings(record) -> bool:
    return not [w for w in record if issubclass(w.category, KernelTierWarning)]


class TestGet:
    def test_numpy_always_resolves(self):
        tier = kernels.get("numpy")
        assert tier.name == "numpy"
        assert tier.compiled is False
        assert isinstance(tier, NumpyKernelTier)

    def test_numpy_is_a_singleton(self):
        assert kernels.get("numpy") is kernels.get("numpy")

    def test_tier_instance_passes_through(self):
        tier = NumpyKernelTier()
        assert kernels.get(tier) is tier

    def test_spec_is_case_insensitive(self):
        assert kernels.get("NumPy").name == "numpy"

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            kernels.get("fortran")

    def test_none_defaults_to_numpy(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert kernels.get(None).name == "numpy"

    def test_none_reads_env_var(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.get(None).name == "numpy"

    def test_env_var_can_select_stubbed_numba(self, stub_numba, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        assert kernels.get(None).name == "numba"


class TestFallbackContract:
    def test_explicit_numba_request_warns_once(self, no_numba):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            first = kernels.get("numba")
            second = kernels.get("numba")
        assert first.name == "numpy"
        assert second is first
        tier_warnings = [
            w for w in record if issubclass(w.category, KernelTierWarning)
        ]
        assert len(tier_warnings) == 1
        assert "unavailable" in str(tier_warnings[0].message)

    def test_auto_degrades_silently(self, no_numba):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            tier = kernels.get("auto")
        assert tier.name == "numpy"
        assert _no_tier_warnings(record)

    def test_available_tiers_without_numba(self, no_numba):
        assert kernels.available_tiers() == ("numpy",)
        assert kernels.numba_available() is False

    def test_available_tiers_with_stub(self, stub_numba):
        assert kernels.available_tiers() == ("numpy", "numba")
        assert kernels.numba_available() is True

    def test_auto_prefers_numba_when_buildable(self, stub_numba):
        assert kernels.get("auto").name == "numba"

    def test_broken_jit_degrades_with_single_warning(
        self, stub_numba, small_atoms, small_nlist, potential, monkeypatch
    ):
        tier = kernels.get("numba")
        assert tier.name == "numba"
        reference = kernels.get("numpy").force_phase(
            potential,
            small_atoms.positions,
            small_atoms.box,
            small_nlist,
            np.zeros(small_atoms.n_atoms),
        )

        def boom(*args, **kwargs):
            raise RuntimeError("typing failure")

        monkeypatch.setattr(tier._kernels, "force_phase", boom)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            forces = tier.force_phase(
                potential,
                small_atoms.positions,
                small_atoms.box,
                small_nlist,
                np.zeros(small_atoms.n_atoms),
            )
            # degraded instance: second call must not warn again
            tier.force_phase(
                potential,
                small_atoms.positions,
                small_atoms.box,
                small_nlist,
                np.zeros(small_atoms.n_atoms),
            )
        np.testing.assert_allclose(forces, reference, atol=1e-12)
        tier_warnings = [
            w for w in record if issubclass(w.category, KernelTierWarning)
        ]
        assert len(tier_warnings) == 1
        assert "disabled" in str(tier_warnings[0].message)

    def test_diagnostic_errors_propagate_not_degrade(self, stub_numba):
        tier = kernels.get("numba")
        rho = np.zeros(4)
        with pytest.raises(IndexError, match="outside the valid range"):
            tier.scatter_rho_half(
                rho,
                np.array([0, 9], dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
                np.ones(2),
            )
        # the deliberate IndexError must NOT have flipped the tier
        tier.scatter_rho_half(
            rho,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.ones(1),
        )
        assert rho[0] == 1.0 and rho[1] == 1.0


class TestActiveTier:
    def test_default_active_tier_is_numpy(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert kernels.active_tier().name == "numpy"

    def test_set_active_tier(self, stub_numba):
        kernels.set_active_tier("numba")
        assert kernels.active_tier().name == "numba"

    def test_use_tier_restores_previous(self, stub_numba):
        kernels.set_active_tier("numpy")
        with kernels.use_tier("numba") as tier:
            assert tier.name == "numba"
            assert kernels.active_tier().name == "numba"
        assert kernels.active_tier().name == "numpy"

    def test_use_tier_none_keeps_active(self):
        before = kernels.active_tier()
        with kernels.use_tier(None) as tier:
            assert tier is before
        assert kernels.active_tier() is before

    def test_use_tier_restores_on_error(self):
        before = kernels.active_tier()
        with pytest.raises(RuntimeError):
            with kernels.use_tier("numpy"):
                raise RuntimeError("boom")
        assert kernels.active_tier() is before


class TestEAMCalculator:
    def test_unknown_tier_raises_at_construction(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            EAMCalculator(kernel_tier="fortran")

    def test_name_and_tier_properties(self):
        calc = EAMCalculator(kernel_tier="numpy")
        assert calc.kernel_tier == "numpy"
        assert calc.name == "serial[numpy]"

    def test_numba_fallback_warns_at_construction(self, no_numba):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            calc = EAMCalculator(kernel_tier="numba")
        assert calc.kernel_tier == "numpy"
        assert [
            w for w in record if issubclass(w.category, KernelTierWarning)
        ]

    def test_compute_matches_reference(
        self, sdc_atoms, sdc_nlist, potential, reference_result
    ):
        calc = EAMCalculator(kernel_tier="numpy")
        result = calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        np.testing.assert_allclose(
            result.forces, reference_result.forces, atol=1e-12
        )

    def test_profiler_gets_tier_stamp(self, sdc_atoms, sdc_nlist, potential):
        """A profiled cell labels its rows with the calculator's tier and
        gets the serial kernels' phase spans through ``attach_tracer``."""
        from repro.obs.tracer import Tracer
        from repro.utils.profiler import phase_stats

        calc = EAMCalculator(kernel_tier="numpy")
        tracer = Tracer()
        calc.attach_tracer(tracer)
        calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        calc.detach_tracer()
        assert calc.kernel_tier == "numpy"
        assert set(phase_stats(tracer.spans)) == {"density", "embedding", "force"}
        calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
        assert len(tracer) == 3

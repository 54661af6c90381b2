"""Tier variants: spec parsing, concurrency.

The regression targets here are the bugs the variant work fixes:

* compilation flags come from the variant spec alone — the
  ``REPRO_KERNEL_PARALLEL``/``REPRO_KERNEL_FASTMATH`` environment
  toggles (snapshotted at import, then deprecated) are gone.
* ``use_tier()`` swaps one process-wide slot, so concurrent drivers used
  to clobber each other's tier mid-evaluation.  Pinned tiers
  (``strategy.set_kernel_tier`` / ``EAMCalculator(kernel_tier=...)``)
  now travel through the dispatch path explicitly.
* forked process workers used to inherit the parent's import-time
  parallel/fastmath state; the resolved variant name now ships in every
  task payload.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro import kernels
from repro.kernels import KernelTierConfig, KernelTierWarning, parse_tier_spec


class TestSpecParsing:
    @pytest.mark.parametrize(
        "spec, base, parallel, fastmath",
        [
            ("numpy", "numpy", False, False),
            ("numba", "numba", False, False),
            ("numba-parallel", "numba", True, False),
            ("numba-fastmath", "numba", False, True),
            ("numba-parallel-fastmath", "numba", True, True),
            ("auto-parallel", "auto", True, False),
        ],
    )
    def test_parse(self, spec, base, parallel, fastmath):
        config = parse_tier_spec(spec)
        assert config.base == base
        assert config.parallel is parallel
        assert config.fastmath is fastmath

    def test_flag_order_is_free_but_name_is_canonical(self):
        config = parse_tier_spec("numba-fastmath-parallel")
        assert config.name == "numba-parallel-fastmath"

    def test_name_round_trips(self):
        for spec in kernels.TIER_NAMES:
            assert parse_tier_spec(spec).name == spec

    def test_numpy_flags_raise(self):
        with pytest.raises(ValueError, match="no parallel/fastmath"):
            parse_tier_spec("numpy-parallel")
        with pytest.raises(ValueError, match="no parallel/fastmath"):
            KernelTierConfig(base="numpy", fastmath=True)

    def test_unknown_flag_raises(self):
        with pytest.raises(ValueError, match="unknown kernel tier flag"):
            parse_tier_spec("numba-turbo")

    def test_duplicate_flag_raises(self):
        with pytest.raises(ValueError, match="duplicate flag"):
            parse_tier_spec("numba-parallel-parallel")

    def test_unknown_base_raises(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            parse_tier_spec("fortran-parallel")

    def test_flags_key(self):
        assert KernelTierConfig("numba", True, False).flags == (True, False)


class TestRegistryVariants:
    def test_variants_resolve_and_cache_per_config(self, stub_numba):
        plain = kernels.get("numba")
        par = kernels.get("numba-parallel")
        fast = kernels.get("numba-fastmath")
        assert plain.name == "numba"
        assert par.name == "numba-parallel"
        assert fast.name == "numba-fastmath"
        assert par.config.parallel and not par.config.fastmath
        assert fast.config.fastmath and not fast.config.parallel
        # one live tier per config, shared across repeated requests
        assert kernels.get("numba-parallel") is par
        assert len({id(t) for t in (plain, par, fast)}) == 3

    def test_config_object_resolves(self, stub_numba):
        config = KernelTierConfig(base="numba", parallel=True)
        assert kernels.get(config) is kernels.get("numba-parallel")

    def test_available_tiers_lists_bases_only(self, stub_numba):
        # variants share the numba toolchain; availability is per base
        assert kernels.available_tiers() == ("numpy", "numba")

    def test_variant_falls_back_with_single_warning(self, no_numba):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            tier = kernels.get("numba-parallel")
        assert tier.name == "numpy"
        assert (
            len([w for w in record if issubclass(w.category, KernelTierWarning)])
            == 1
        )

    def test_env_tier_var_accepts_variant_spec(self, stub_numba, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numba-parallel")
        assert kernels.get(None).name == "numba-parallel"


class TestEnvFlagMigration:
    """The ``REPRO_KERNEL_PARALLEL`` / ``REPRO_KERNEL_FASTMATH`` shims are
    gone: a spec means exactly what it says, whatever the environment."""

    def test_explicit_variant_spec_wins_over_env(self, stub_numba, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_PARALLEL", "1")
        monkeypatch.setenv("REPRO_KERNEL_FASTMATH", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            explicit = parse_tier_spec("numba-fastmath")
            bare = parse_tier_spec("numba")
        assert (explicit.parallel, explicit.fastmath) == (False, True)
        assert (bare.parallel, bare.fastmath) == (False, False)
        assert kernels.get("numba").name == "numba"


class TestConcurrentDrivers:
    """The use_tier clobbering bug: pinned tiers bypass the global slot."""

    def test_pinned_compute_never_consults_global(
        self, stub_numba, sdc_atoms, sdc_nlist, potential, reference_result, monkeypatch
    ):
        from repro.core.strategies import STRATEGY_REGISTRY

        strategy = STRATEGY_REGISTRY["sdc"](dims=2, n_threads=2)
        strategy.set_kernel_tier("numba")

        def boom():  # pragma: no cover - asserting it is never hit
            raise AssertionError(
                "pinned strategy consulted the process-global tier"
            )

        monkeypatch.setattr(kernels, "active_tier", boom)
        result = strategy.compute(potential, sdc_atoms.copy(), sdc_nlist)
        np.testing.assert_allclose(
            result.forces, reference_result.forces, rtol=1e-10, atol=1e-10
        )

    def test_threaded_calculators_keep_their_tiers(
        self, stub_numba, sdc_atoms, sdc_nlist, potential, reference_result
    ):
        """Two calculators on different tiers interleave without clobbering.

        Before the fix, each compute wrapped itself in ``use_tier`` —
        thread A's restore could land mid-evaluation of thread B,
        flipping B onto A's tier.  With pinned dispatch the global slot
        is never written, which the final assertion checks directly.
        """
        from repro.core.strategies import STRATEGY_REGISTRY
        from repro.md import EAMCalculator

        kernels.set_active_tier("numpy")
        sentinel = kernels.active_tier()

        def make(tier_name):
            strategy = STRATEGY_REGISTRY["sdc"](dims=2, n_threads=1)
            return EAMCalculator(strategy, kernel_tier=tier_name)

        calcs = {"numpy": make("numpy"), "numba-parallel": make("numba-parallel")}
        barrier = threading.Barrier(len(calcs))
        failures = []

        def drive(name, calc):
            try:
                for _ in range(4):
                    barrier.wait(timeout=30)
                    result = calc.compute(
                        potential, sdc_atoms.copy(), sdc_nlist
                    )
                    assert calc.kernel_tier == name
                    np.testing.assert_allclose(
                        result.forces,
                        reference_result.forces,
                        rtol=1e-10,
                        atol=1e-10,
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append((name, exc))

        threads = [
            threading.Thread(target=drive, args=(name, calc))
            for name, calc in calcs.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not failures, failures
        # the global slot was never touched by either pinned calculator
        assert kernels.active_tier() is sentinel


class TestProcessWorkerVariant:
    """The fork-inheritance bug: workers rebuild the payload's variant."""

    def test_worker_resolved_variant_matches_parent(
        self, stub_numba, sdc_atoms, sdc_nlist, potential
    ):
        from repro.parallel.backends.processes import ProcessSDCCalculator

        calc = ProcessSDCCalculator(
            dims=2, n_workers=2, kernel_tier="numba-parallel"
        )
        try:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            assert calc.kernel_tier == "numba-parallel"
            worker_tiers = calc.worker_kernel_tiers()
            assert len(worker_tiers) == 2
            resolved = {name for name in worker_tiers.values() if name}
            assert resolved == {"numba-parallel"}
        finally:
            calc.close()

    def test_set_kernel_tier_retargets_payload(
        self, stub_numba, sdc_atoms, sdc_nlist, potential
    ):
        from repro.parallel.backends.processes import ProcessSDCCalculator

        calc = ProcessSDCCalculator(dims=2, n_workers=2, kernel_tier="numpy")
        try:
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            calc.set_kernel_tier("numba-parallel")
            assert calc.kernel_tier == "numba-parallel"
            calc.compute(potential, sdc_atoms.copy(), sdc_nlist)
            resolved = {
                name for name in calc.worker_kernel_tiers().values() if name
            }
            assert resolved == {"numba-parallel"}
        finally:
            calc.close()

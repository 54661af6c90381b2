"""Fixtures for the kernel-tier suite."""

from __future__ import annotations

import pytest

from repro import kernels


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with a pristine tier registry.

    The registry is process-global state (the cached tier and the active
    slot); leaking it between tests makes selection assertions
    order-dependent.
    """
    kernels.reset()
    yield
    kernels.reset()

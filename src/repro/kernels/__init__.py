"""The kernel-tier registry for the EAM hot path: one tier per process.

A *tier* implements the kernel entry points behind
:mod:`repro.potentials.eam` and the neighbour build (pair geometry, the
density/force scatters, the fused phase drivers, the SDC slice entry
points, the CSR walk).  Two tiers ship: ``"numpy"``
(:class:`~repro.kernels.numpy_tier.NumpyKernelTier`), the vectorized
reference, and ``"c"`` (:mod:`repro.kernels.c_tier`), its subclass with
the hot entry points compiled by the host's ``cc`` on first use.

The tier is a property of the process, chosen in one place:
:func:`active_tier` resolves the ``REPRO_KERNEL_TIER`` environment
variable, else ``"c"`` where it builds, else ``"numpy"`` — a fallback
announced once per process by a ``RuntimeWarning`` and a
``kernel``/``tier-fallback`` health event naming the cause
(:func:`tier_status` keeps it).  Every kernel call of a run, the Verlet
build included, goes to that tier; strategy threads see it, and forked
workers inherit it.  :func:`use_tier` is the one scoped override, for
tests and single-driver scripts.  Asking for ``"c"`` by name where it
cannot build raises ``RuntimeError`` with the cause instead.  An unknown
name raises ``ValueError`` naming the accepted ones, whether it came from
an argument or from ``REPRO_KERNEL_TIER``.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

from repro.kernels.base import MIN_PAIR_SEPARATION
from repro.kernels.numpy_tier import NumpyKernelTier

__all__ = [
    "MIN_PAIR_SEPARATION",
    "NumpyKernelTier",
    "active_tier",
    "available_tiers",
    "get",
    "reset",
    "tier_status",
    "use_tier",
]

ENV_VAR = "REPRO_KERNEL_TIER"

#: every tier name the registry knows, runnable here or not
TIER_NAMES = ("numpy", "c")

TierSpec = Union[str, NumpyKernelTier, None]

_numpy_tier: Optional[NumpyKernelTier] = None
_c_tier: Optional[NumpyKernelTier] = None
#: the C tier's build status, once loaded (``c_tier.BuildStatus.as_dict``)
_c_status: Optional[Dict[str, object]] = None
_fallback_reported = False
_active: Optional[NumpyKernelTier] = None
#: guards the active-tier slot swaps and the one C load (not held across
#: user code)
_active_lock = threading.RLock()


def _get_numpy() -> NumpyKernelTier:
    global _numpy_tier
    if _numpy_tier is None:
        _numpy_tier = NumpyKernelTier()
    return _numpy_tier


def _get_c() -> Optional[NumpyKernelTier]:
    """The C tier, built or loaded once per process; None if it cannot be."""
    global _c_tier, _c_status
    with _active_lock:
        if _c_status is None:
            from repro.kernels.c_tier import load

            _c_tier, status = load()
            _c_status = status.as_dict()
    return _c_tier


def _report_fallback() -> None:
    """The default wanted C and gets NumPy: say so, once per process."""
    global _fallback_reported
    if _fallback_reported:
        return
    _fallback_reported = True
    reason = _c_status["reason"]
    warnings.warn(
        f"C kernel tier unavailable ({reason}); falling back to the numpy tier",
        RuntimeWarning,
        stacklevel=3,
    )
    _record_health(
        "tier-fallback", "warning", requested="c", tier="numpy", reason=reason
    )


def _record_health(event: str, severity: str = "info", **fields: object) -> None:
    """Record a ``kernel``-category health event (never raises)."""
    try:
        from repro.obs.recorder import record

        record("kernel", event, severity=severity, **fields)
    except Exception:  # pragma: no cover - health plane must stay optional
        pass


def available_tiers(load: bool = True) -> tuple:
    """Names of the tiers that run here (``"c"`` only where it builds).

    Finding out loads the C tier — on a cold cache that runs the compiler.
    ``load=False`` never does: ``"c"`` is then listed only if this process
    has already loaded it."""
    if load:
        _get_c()
    return TIER_NAMES if _c_tier is not None else ("numpy",)


def get(spec: TierSpec = None) -> NumpyKernelTier:
    """Resolve a tier spec to a live tier instance (selects nothing).

    Accepts a tier name (any of :data:`TIER_NAMES`, case-insensitive), a
    tier instance (returned as-is), or None/"" meaning the
    ``REPRO_KERNEL_TIER`` environment default, itself defaulting to ``"c"``
    when it builds and to ``"numpy"`` otherwise (see the module
    docstring).  Any other name raises ``ValueError``; ``"c"`` by name
    where it cannot build raises ``RuntimeError``.
    """
    if isinstance(spec, NumpyKernelTier):
        return spec
    source = "kernel tier"
    if spec is None or spec == "":
        spec = os.environ.get(ENV_VAR, "").strip() or None
        source = f"kernel tier from {ENV_VAR}"
    name = spec.strip().lower() if spec is not None else None
    if name is not None and name not in TIER_NAMES:
        raise ValueError(
            f"unknown {source} {spec!r}; expected one of {TIER_NAMES}"
        )
    resolved = _get_numpy() if name == "numpy" else _get_c()
    if resolved is None:
        if name == "c":
            raise RuntimeError(
                f"{source} 'c' is unavailable: {_c_status['reason']}"
            )
        _report_fallback()
        resolved = _get_numpy()
    return resolved


def active_tier() -> NumpyKernelTier:
    """The tier every kernel call of this process dispatches to."""
    global _active
    if _active is None:
        with _active_lock:
            if _active is None:
                _active = get(None)
    return _active


@contextmanager
def use_tier(spec: TierSpec) -> Iterator[NumpyKernelTier]:
    """Run the ``with`` body on another tier; ``None`` keeps the current one.

    A scope for tests and single-driver scripts: it swaps the one
    process-wide slot, so the override covers everything the body runs —
    the neighbour build, strategy threads, workers an engine forks — and
    is restored on exit.  The lock guards only the swap: two threads
    nesting different ``use_tier`` blocks see each other's tier.
    """
    if spec is None:
        yield active_tier()
        return
    tier = get(spec)
    with _active_lock:
        global _active
        previous = _active
        _active = tier
    try:
        yield tier
    finally:
        with _active_lock:
            _active = previous


def tier_status() -> Dict[str, object]:
    """Registry state for the health snapshot: the active tier (None
    before first resolution), the ``REPRO_KERNEL_TIER`` default and the C
    tier's build (``state`` built / cached / unavailable, ``reason``,
    ``so_path``, ``build_s``, and ``simd``, the pair-term clone the
    loader picked).  Reading it loads nothing: before anything
    resolved the C tier — a process that selected ``numpy`` — its state is
    ``not-loaded``."""
    with _active_lock:
        active, c = _active, _c_status
    return {
        "active": active.name if active is not None else None,
        "env_default": os.environ.get(ENV_VAR, "").strip() or None,
        "c": dict(c) if c is not None else {
            "state": "not-loaded", "reason": None, "so_path": None,
            "build_s": None, "simd": None,
        },
    }


def reset() -> None:
    """Forget the cached tiers, the C load, the fallback notice and the
    active slot (test isolation)."""
    global _numpy_tier, _c_tier, _c_status, _fallback_reported, _active
    _numpy_tier = _c_tier = _c_status = _active = None
    _fallback_reported = False

"""Pluggable kernel tiers for the EAM hot path (ROADMAP item: compiled tier).

A *tier* implements the kernel entry points behind
:mod:`repro.potentials.eam` (pair geometry, the density/force scatters,
the fused phase drivers and the SDC slice entry points).  Two bases ship today:

* ``"numpy"`` — the vectorized reference implementation (always present).
* ``"numba"`` — ``@njit``-compiled CSR traversal; requires Numba.

The numba base has first-class *variants* that select its compilation
flags per spec: ``"numba-parallel"`` (``prange`` over the elementwise
kernels), ``"numba-fastmath"``,
and ``"numba-parallel-fastmath"``.  Each variant compiles its own kernel
set lazily on first request and is cached by its
:class:`~repro.kernels.config.KernelTierConfig`.

``"auto"`` picks numba when importable, numpy otherwise, silently.
Requesting ``"numba"`` (or any variant) explicitly when it cannot be
built emits a single :class:`KernelTierWarning` and returns the numpy
tier — a missing or broken JIT never crashes a run (the *fallback
contract*, see DESIGN.md).

Selection surfaces, outermost wins:

* ``EAMCalculator(kernel_tier=...)`` / ``ProcessSDCCalculator(kernel_tier=...)``
* ``strategy.set_kernel_tier(...)`` on any reduction strategy
* ``repro bench --kernel-tier ...`` / ``repro trace --kernel-tier ...``
* the ``REPRO_KERNEL_TIER`` environment variable (process-wide default)

Dispatch happens through a process-global *active tier*
(:func:`active_tier`), temporarily overridden with :func:`use_tier`.
The global is deliberately not thread-local: strategy worker threads
must see the tier their driver selected.  **Concurrent drivers must not
rely on** :func:`use_tier` — it swaps one process-wide slot, so two
calculators overriding it from different threads clobber each other
mid-evaluation.  Drivers that may run concurrently pass their resolved
tier explicitly instead (``strategy.set_kernel_tier`` /
``compute_eam_forces_serial(tier=...)``), which is what
:class:`~repro.md.calculator.EAMCalculator` does.  Forked process
workers re-resolve from the variant name shipped in their task payload.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.kernels.base import (
    MIN_PAIR_SEPARATION,
    KernelTier,
    KernelTierWarning,
    reset_tier_warnings,
    warn_tier_once,
)
from repro.kernels.config import KernelTierConfig, parse_tier_spec
from repro.kernels.numpy_tier import NumpyKernelTier

__all__ = [
    "MIN_PAIR_SEPARATION",
    "KernelTier",
    "KernelTierConfig",
    "KernelTierWarning",
    "TIER_NAMES",
    "active_tier",
    "available_tiers",
    "get",
    "numba_available",
    "parse_tier_spec",
    "poison_numba",
    "reset",
    "set_active_tier",
    "tier_status",
    "use_tier",
]

#: canonical specs ``get`` accepts (flags may also trail ``auto``)
TIER_NAMES = (
    "numpy",
    "numba",
    "auto",
    "numba-parallel",
    "numba-fastmath",
    "numba-parallel-fastmath",
)

ENV_VAR = "REPRO_KERNEL_TIER"

TierSpec = Union[str, KernelTier, KernelTierConfig, None]

_numpy_tier: Optional[NumpyKernelTier] = None
#: one numba tier per (parallel, fastmath) compilation config
_numba_tiers: Dict[Tuple[bool, bool], KernelTier] = {}
_numba_error: Optional[str] = None
_active: Optional[KernelTier] = None
#: guards the active-tier slot swaps (not held across user code)
_active_lock = threading.RLock()


def _get_numpy() -> NumpyKernelTier:
    global _numpy_tier
    if _numpy_tier is None:
        _numpy_tier = NumpyKernelTier()
    return _numpy_tier


def _build_numba(config: KernelTierConfig, warn: bool) -> Optional[KernelTier]:
    """Build (once per config) a numba tier; None when it cannot be built.

    ``warn`` controls whether failure emits the fallback warning —
    ``"numba"`` was asked for by name, so the user should hear why they
    are not getting it; ``"auto"`` promised only best-effort.  An import
    failure poisons every variant (they share the toolchain), so it is
    recorded once and never retried within a process.
    """
    global _numba_error
    key = (config.parallel, config.fastmath)
    tier = _numba_tiers.get(key)
    if tier is not None:
        return tier
    if _numba_error is None:
        try:
            from repro.kernels.numba_tier import NumbaKernelTier

            import time as _time

            started = _time.perf_counter()
            tier = NumbaKernelTier(config)
            _numba_tiers[key] = tier
            _record_health(
                "jit-compile",
                "info",
                variant=tier.name,
                compile_seconds=_time.perf_counter() - started,
                parallel=config.parallel,
                fastmath=config.fastmath,
            )
            return tier
        except Exception as exc:
            _numba_error = f"{type(exc).__name__}: {exc}"
            if not warn:
                # the silent (auto) path never reaches warn_tier_once, so
                # the degradation event is recorded here — once, at the
                # moment the failure is first discovered
                _record_health(
                    "tier-fallback",
                    "info",
                    requested=config.name,
                    reason=_numba_error,
                    silent=True,
                )
    if warn:
        warn_tier_once(
            "numba-unavailable",
            f"numba kernel tier unavailable ({_numba_error}); "
            "falling back to the numpy tier",
        )
    return None


def _record_health(event: str, severity: str = "info", **fields: object) -> None:
    """Record a ``kernel``-category health event (never raises)."""
    try:
        from repro.obs.recorder import record

        record("kernel", event, severity=severity, **fields)
    except Exception:  # pragma: no cover - health plane must stay optional
        pass


def _count_health(name: str) -> None:
    """Bump a named health counter (never raises)."""
    try:
        from repro.obs.recorder import count

        count(name)
    except Exception:  # pragma: no cover - health plane must stay optional
        pass


def numba_available() -> bool:
    """True when the numba tier can actually be built in this process."""
    return _build_numba(KernelTierConfig(base="numba"), warn=False) is not None


def available_tiers() -> tuple:
    """Names of the base tiers that would really run here (numpy always).

    Variant specs (``numba-parallel``, ...) compile from the same
    toolchain, so base availability is the whole story.
    """
    return ("numpy", "numba") if numba_available() else ("numpy",)


def get(spec: TierSpec = "auto") -> KernelTier:
    """Resolve a tier spec to a live tier instance.

    Accepts a variant spec string (any of :data:`TIER_NAMES`, plus
    flagged ``auto-*`` forms; case-insensitive), a
    :class:`KernelTierConfig`, an existing :class:`KernelTier` (returned
    as-is), or None/"" meaning the ``REPRO_KERNEL_TIER`` environment
    default (itself defaulting to numpy).  An explicit ``numba`` request
    that cannot be satisfied warns once and returns the numpy tier;
    ``"auto"`` degrades silently.
    """
    if isinstance(spec, KernelTier):
        return spec
    if isinstance(spec, KernelTierConfig):
        config = spec
    else:
        if spec is None or spec == "":
            spec = os.environ.get(ENV_VAR, "").strip() or "numpy"
        config = parse_tier_spec(spec)
    if config.base == "numpy":
        resolved: KernelTier = _get_numpy()
    else:
        warn = config.base == "numba"
        resolved = _build_numba(config, warn=warn) or _get_numpy()
        if warn and not resolved.compiled:
            # explicit numba request degraded to numpy: the warning above
            # fired at most once, but the event stream should attribute
            # every degraded resolution (requested vs resolved) — counters
            # keep that cheap after the first event
            _count_health(f"kernel_degraded_resolve/{config.name}")
    _count_health(f"kernel_resolve/{resolved.name}")
    return resolved


def active_tier() -> KernelTier:
    """The tier :mod:`repro.potentials.eam` currently dispatches to."""
    global _active
    if _active is None:
        with _active_lock:
            if _active is None:
                _active = get(None)
    return _active


def set_active_tier(spec: TierSpec) -> KernelTier:
    """Set the process-wide active tier; None re-resolves the env default."""
    global _active
    tier = get(spec) if spec is not None else get(None)
    with _active_lock:
        previous, _active = _active, tier
    if previous is not tier:
        _record_health(
            "active-tier-set",
            "info",
            tier=tier.name,
            previous=previous.name if previous is not None else None,
        )
    return tier


@contextmanager
def use_tier(spec: TierSpec) -> Iterator[KernelTier]:
    """Scoped override of the *process-wide* tier; ``None`` keeps the
    current one.

    The swap itself is locked, but the override is global for the whole
    ``with`` body — two threads nesting different ``use_tier`` blocks
    still see each other's tier.  Concurrent drivers must pass their
    tier explicitly (``strategy.set_kernel_tier`` /
    ``compute_eam_forces_serial(tier=...)``) instead of relying on this;
    ``use_tier`` remains for single-threaded scoping and tests.
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
    """Registry state for the health snapshot — observation only.

    Reports what the registry *knows so far* without forcing a JIT
    build: the active tier, the environment default, which numba
    variants have compiled, whether numba has been imported (and its
    version), and the recorded build failure if any.  Use
    :func:`numba_available` when you actually want a build attempt.
    """
    with _active_lock:
        active = _active
    numba_module = sys.modules.get("numba")
    return {
        "active": active.name if active is not None else None,
        "active_compiled": bool(active.compiled) if active is not None else None,
        "env_default": os.environ.get(ENV_VAR, "").strip() or None,
        "built_variants": sorted(t.name for t in _numba_tiers.values()),
        "numba_imported": numba_module is not None,
        "numba_version": getattr(numba_module, "__version__", None),
        "numba_error": _numba_error,
    }


def poison_numba(reason: str = "fault injection") -> None:
    """Force every future numba build to fail (diagnostic fault injection).

    `repro doctor --inject tier-degradation` uses this to prove the
    degradation path is *visible*: after poisoning, an explicit
    ``get("numba")`` must warn, fall back to numpy, and leave a
    ``tier-fallback`` event in the flight recorder.  Compiled tiers
    already built are forgotten; an active compiled tier is demoted to
    numpy.  Undo with :func:`reset`.
    """
    global _numba_error, _active
    _numba_tiers.clear()
    _numba_error = f"poisoned: {reason}"
    with _active_lock:
        if _active is not None and _active.compiled:
            _active = _get_numpy()
    _record_health("numba-poisoned", "info", reason=reason)


def reset() -> None:
    """Forget all cached tiers, failures, and warnings (test isolation).

    Also drops the imported numba tier module so a test that installs or
    removes a fake ``numba`` in ``sys.modules`` gets a fresh import.
    """
    global _numpy_tier, _numba_error, _active
    _numpy_tier = None
    _numba_tiers.clear()
    _numba_error = None
    _active = None
    sys.modules.pop("repro.kernels.numba_tier", None)
    reset_tier_warnings()

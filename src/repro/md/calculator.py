"""`EAMCalculator` — a force calculator with an explicit kernel tier.

The strategies and backends are tier-agnostic: they call the kernel
entry points in :mod:`repro.potentials.eam`, which dispatch to the
process-global active tier unless handed a tier explicitly.
:class:`EAMCalculator` is the user-facing way to *choose* that tier per
calculator instead of per process: it wraps any inner
:class:`~repro.md.simulation.ForceCalculator` (or the serial kernels
when none is given) and pins the resolved tier onto the inner's
``set_kernel_tier`` hook when it has one — the concurrency-safe path,
since the tier then travels with every kernel call instead of through
the process-global active slot.  Inners without the hook still get the
scoped :func:`repro.kernels.use_tier` override, which is correct for
single-driver processes but documented as unsafe for concurrent
drivers.
"""

from __future__ import annotations

from typing import Optional

from repro import kernels
from repro.md.atoms import Atoms
from repro.md.neighbor.verlet import NeighborList
from repro.potentials.base import EAMPotential
from repro.potentials.eam import EAMComputation, compute_eam_forces_serial


class EAMCalculator:
    """Tier-selecting wrapper around any force calculator.

    Parameters
    ----------
    calculator:
        the inner :class:`~repro.md.simulation.ForceCalculator` (a
        strategy, a process engine, ...); None means the serial kernels.
    kernel_tier:
        a tier name (``"numpy"``, ``"c"``), a live
        :class:`~repro.kernels.KernelTier`, or None for the process
        default (``REPRO_KERNEL_TIER``, else C where it builds, else
        numpy).  Resolved eagerly,
        so an unknown name raises here, not mid-run.
    """

    def __init__(
        self,
        calculator=None,
        kernel_tier: kernels.TierSpec = None,
    ) -> None:
        self._inner = calculator
        self._tier: Optional[kernels.KernelTier] = (
            kernels.get(kernel_tier) if kernel_tier is not None else None
        )
        self._tracer = None
        # pin the tier on the inner when it supports explicit selection —
        # the tier then rides along with every kernel call, so concurrent
        # calculators never race on the process-global active tier
        self._inner_pinned = False
        if self._tier is not None and self._inner is not None:
            hook = getattr(self._inner, "set_kernel_tier", None)
            if hook is not None:
                hook(self._tier)
                self._inner_pinned = True

    @property
    def kernel_tier(self) -> str:
        """Resolved tier name this calculator computes with."""
        return (self._tier or kernels.active_tier()).name

    @property
    def name(self) -> str:
        inner = (
            getattr(self._inner, "name", type(self._inner).__name__)
            if self._inner is not None
            else "serial"
        )
        return f"{inner}[{self.kernel_tier}]"

    def compute(
        self, potential: EAMPotential, atoms: Atoms, nlist: NeighborList
    ) -> EAMComputation:
        """Run the 3-phase evaluation under this calculator's tier."""
        if self._inner is None:
            return compute_eam_forces_serial(
                potential, atoms, nlist, tracer=self._tracer, tier=self._tier
            )
        if self._inner_pinned or self._tier is None:
            return self._inner.compute(potential, atoms, nlist)
        # hook-less inner: fall back to the scoped global override (fine
        # when this is the only driver computing in the process)
        with kernels.use_tier(self._tier):
            return self._inner.compute(potential, atoms, nlist)

    # --- observability / lifecycle forwarding -------------------------------

    def health_snapshot(self) -> dict:
        """Engine/tier state for the health plane.

        Wraps the inner calculator's ``health_snapshot`` when it has one
        (the process engine reports pool/arena lifecycle state); plain
        inners still report the resolved tier and calculator name.
        """
        snapshot = {
            "engine": self.name,
            "kernel_tier": self.kernel_tier,
            "tier_pinned": self._tier is not None,
        }
        hook = getattr(self._inner, "health_snapshot", None)
        if callable(hook):
            snapshot["inner"] = hook()
        return snapshot

    def attach_tracer(self, tracer) -> None:
        self._tracer = tracer
        hook = getattr(self._inner, "attach_tracer", None)
        if hook is not None:
            hook(tracer)

    def detach_tracer(self) -> None:
        self._tracer = None
        hook = getattr(self._inner, "detach_tracer", None)
        if hook is not None:
            hook()

    def close(self) -> None:
        hook = getattr(self._inner, "close", None)
        if hook is not None:
            hook()

    def __enter__(self) -> "EAMCalculator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

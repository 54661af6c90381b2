"""The C kernel tier: ``eam.c`` built by the host's ``cc``, called through
ctypes.

:func:`load` compiles the package's one C source on first use with ``cc
-O3 -ffp-contract=off -shared -fPIC -pthread -lm`` into ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``), under a name hashed from the source, the compiler's
``--version`` and the flags: a new source or compiler gets a new file, and
a warm process pays one ``dlopen``.  The build writes a temporary file and
``os.replace``-s it into place, so processes racing the first build each
load a complete library.  A cached file whose ELF section table runs past
its end (a truncated copy) is rebuilt, not loaded.  The library's one
SIMD function carries a clone per vector width, and the dynamic loader
picks the widest the CPU runs (:attr:`BuildStatus.simd` names it), so
neither the flags nor the key name a CPU.  A 96-pair density slice
through every branch of the pair terms and a 200-atom neighbour build
against the NumPy tier then decide whether the library is used at all.

:class:`CKernelTier` is the NumPy tier with the hot entry points replaced
by single foreign calls, each of which drops the GIL: ``evaluate`` (three
calls: density, embedding, force), the slice bodies ``density_slice`` /
``force_slice`` every colour task runs, the pair halves ``pair_pass`` /
``pair_forces`` the comparison strategies scatter their own way, the SDC
walker ``sdc_walker`` (:class:`SDCWalk`: one call per worker per
evaluation runs its every colour, its embedding rows and every barrier
between them) and its team ``sdc_team`` (:class:`SDCTeam`: helpers that
persist between walks, the caller walking as worker 0 — C threads, so on
threads a walk is not a ``run_phase``, or processes the process engine
forks over a team laid out in its arena, each in ``serve_team``), the
neighbour build
(``bin_cells``, the finite check, the wrap and a counting sort into
cells in one pass; ``neighbor_csr``, the
forward-stencil walk and the CSR packing in one call; and its packer
``pairs_to_csr``), and the two halves of a velocity-Verlet step,
``kick_drift`` (half-kick, drift, wrap and the Verlet displacement in one
pass) and ``kick`` (the closing half-kick and the step's moments ``sum m
v^2``, ``sum m v`` and ``sum f``).  Every other
primitive is the NumPy tier's.  The
contract of :mod:`repro.kernels.base` is kept on the Python side of each
call:

* arguments are checked before the call — anything that is not a
  C-contiguous float64 (int64 for indices) ``ndarray`` of the expected
  shape, which includes racecheck's ``ShadowArray``, and any index outside
  the arrays it addresses, runs the NumPy code instead, so it raises the
  NumPy tier's own error and racecheck sees every write;
* an overlapping pair comes back as the closest pair's slot and raises
  :func:`~repro.kernels.base.overlap_error`, before any accumulator is
  written;
* a potential :mod:`~repro.kernels.lowering` cannot lower gets C geometry,
  NumPy ``pair_terms`` on the returned ``r``, then the C scatters (and no
  walker: its caller runs the slices).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import struct
import subprocess
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.kernels.base import (
    MIN_PAIR_SEPARATION,
    handover_arrays,
    overlap_error,
)
from repro.kernels.lowering import LoweredPotential, lower_potential
from repro.kernels.numpy_tier import NumpyKernelTier
from repro.obs.tracer import span_of
from repro.utils.arrays import CSR
from repro.utils.validation import check_finite

COMPILER = "cc"
#: ``-ffp-contract=off``: no fused multiply-add where the target has one,
#: so the geometry and force coefficient round as NumPy's do
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")
SOURCE = "eam.c"

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)
#: a zero-length ctypes view passes an array's address for 0.4 µs,
#: against 2 µs for ``ndarray.ctypes.data``
_VIEW = ctypes.c_char * 0


class BuildError(RuntimeError):
    """The C tier cannot be built, loaded or trusted on this host."""


@dataclass(frozen=True)
class BuildStatus:
    """What :func:`load` found: ``state`` is ``"built"`` (compiled in this
    process, ``build_s`` seconds), ``"cached"`` (loaded from the cache) or
    ``"unavailable"`` (``reason`` says why); ``simd`` is the pair-term
    clone the loader picked, ``"avx512f"``, ``"avx2"`` or ``"default"``."""

    state: str
    reason: Optional[str] = None
    so_path: Optional[str] = None
    build_s: Optional[float] = None
    simd: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# build and load
# ---------------------------------------------------------------------------


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _tail(text: str, lines: int = 12) -> str:
    return "\n".join(text.strip().splitlines()[-lines:])


def _run(cmd, **kwargs) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, capture_output=True, timeout=300, **kwargs)
    except (OSError, subprocess.SubprocessError) as exc:
        raise BuildError(f"{cmd[0]} could not run: {exc}") from exc


def _intact(path: Path) -> bool:
    """True when ``path`` is an ELF file whose section-header table — the
    last thing the linker writes — lies wholly inside it.  A truncated
    copy fails here, before ``dlopen`` could map past its end."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(64)
            size = os.fstat(handle.fileno()).st_size
    except OSError:
        return False
    if len(head) < 52 or head[:4] != b"\x7fELF" or head[5] not in (1, 2):
        return False
    order = "<" if head[5] == 1 else ">"
    if head[4] == 2 and len(head) == 64:  # ELF64
        shoff, = struct.unpack_from(order + "Q", head, 0x28)
        shentsize, shnum = struct.unpack_from(order + "HH", head, 0x3A)
    elif head[4] == 1:  # ELF32
        shoff, = struct.unpack_from(order + "I", head, 0x20)
        shentsize, shnum = struct.unpack_from(order + "HH", head, 0x2E)
    else:
        return False
    return 0 < shoff and shoff + shentsize * shnum <= size


def _compile(compiler: str, source: bytes, so_path: Path) -> None:
    """``cc`` the source from stdin into a temporary file beside
    ``so_path``, then move it into place."""
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=so_path.stem + "-", suffix=".tmp", dir=so_path.parent
        )
        os.close(fd)
    except OSError as exc:
        raise BuildError(f"cannot write to {so_path.parent}: {exc}") from exc
    try:
        proc = _run(
            [compiler, *FLAGS, "-o", tmp, "-x", "c", "-", "-lm"], input=source
        )
        if proc.returncode != 0:
            raise BuildError(
                f"{compiler} exited {proc.returncode}:\n"
                + _tail(proc.stderr.decode(errors="replace"))
            )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library() -> Tuple[ctypes.CDLL, BuildStatus]:
    """Load the cached library, building it first when needed."""
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise BuildError(f"no C compiler: {COMPILER!r} is not on PATH")
    source = resources.files("repro.kernels").joinpath(SOURCE).read_bytes()
    proc = _run([compiler, "--version"])
    if proc.returncode != 0:
        raise BuildError(f"{compiler} --version exited {proc.returncode}")
    key = hashlib.sha256(
        b"\0".join([source, proc.stdout, " ".join(FLAGS).encode()])
    ).hexdigest()[:16]
    so_path = cache_dir() / f"eam-{key}.so"
    if _intact(so_path):
        try:
            return ctypes.CDLL(str(so_path)), BuildStatus(
                "cached", so_path=str(so_path)
            )
        except OSError:
            pass  # e.g. another architecture's file: rebuild it
    started = time.perf_counter()
    _compile(compiler, source, so_path)
    build_s = time.perf_counter() - started
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError as exc:
        raise BuildError(f"built {so_path} but cannot load it: {exc}") from exc
    return lib, BuildStatus("built", so_path=str(so_path), build_s=build_s)


def _smoke(tier: "CKernelTier") -> None:
    """A 96-pair density slice, C against NumPy, to 1e-12; then a 200-atom
    binning, array for array, and neighbour build, half and full, CSR for
    CSR."""
    from repro.geometry.box import Box
    from repro.md.neighbor.cells import CellList
    from repro.potentials.johnson_fe import JohnsonFePotential

    potential, box = JohnsonFePotential(), Box((10.0, 10.0, 10.0))
    reference = NumpyKernelTier()
    # atom 0 and 96 partners at r from 2.0 Å to the cutoff + 0.4, through
    # the three regions of the switch (s = 1, the quintic, exact zeros) and
    # enough slots for the vector body of every SIMD width; the partners
    # lie across the box faces from atom 0
    n_pairs = 96
    r = np.linspace(2.0, potential.r_cut + 0.4, n_pairs)
    direction = np.array([-0.48, 0.6, -0.64])
    positions = np.vstack(
        [[0.5, 9.7, 0.6], box.wrap([0.5, 9.7, 0.6] + r[:, None] * direction)]
    )
    i_idx = np.zeros(n_pairs, dtype=np.int64)
    j_idx = np.arange(1, n_pairs + 1, dtype=np.int64)
    got, want = np.zeros(n_pairs + 1), np.zeros(n_pairs + 1)
    energies = [
        impl.density_slice(
            potential, positions, box, i_idx, j_idx, rho, handover_arrays(n_pairs)
        )
        for impl, rho in ((tier, got), (reference, want))
    ]
    if not (
        np.allclose(got, want, rtol=1e-12, atol=0.0)
        and np.isclose(*energies, rtol=1e-12, atol=0.0)
        and want[0] > 0.0 and np.any(want[1:] == 0.0)
    ):
        raise BuildError(
            f"smoke call disagrees with NumPy: rho {got} vs {want}, "
            f"pair energy {energies[0]} vs {energies[1]}"
        )
    # 2,231 pairs on a 3x3x3 grid, 686 across a box face: enough that a
    # walk missing any one stencil offset misses pairs; binned by each tier
    gas = np.random.default_rng(0).uniform(0.0, 10.0, size=(200, 3))
    grid = ((3, 3, 3), box.lengths / 3)
    binned = [impl.bin_cells(gas, box, *grid) for impl in (tier, reference)]
    if not all(np.array_equal(*arrays) for arrays in zip(*binned)):
        raise BuildError("smoke binning disagrees with NumPy")
    cells = CellList(box, *grid, *binned[1][1:])
    half = reference.neighbor_csr(gas, cells, 3.0, True)
    # the full list from NumPy's packer: one NumPy walk is most of the cost
    full = reference.pairs_to_csr(half.row_of_value(), half.values, 200, mirror=True)
    for expected in (half, full):
        csr = tier.neighbor_csr(gas, cells, 3.0, expected is half)
        if csr != expected or expected.n_values == 0:
            raise BuildError(
                f"smoke neighbour build (half={expected is half}) disagrees "
                f"with NumPy: {csr.n_values} vs {expected.n_values} entries"
            )


def load() -> Tuple[Optional["CKernelTier"], BuildStatus]:
    """The C tier and how it was obtained; ``(None, status)`` with the
    reason when it cannot be built, loaded or passes no smoke call.
    Never raises."""
    so_path = None
    try:
        lib, status = _library()
        so_path = status.so_path
        tier = CKernelTier(lib)
        _smoke(tier)
        return tier, replace(status, simd=tier.simd)
    except Exception as exc:  # noqa: BLE001 - every cause becomes the reason
        reason = str(exc) if isinstance(exc, BuildError) else repr(exc)
        return None, BuildStatus("unavailable", reason=reason, so_path=so_path)


# ---------------------------------------------------------------------------
# the tier
# ---------------------------------------------------------------------------


def _ptr(array: np.ndarray):
    """What ctypes passes for a C-contiguous array's first element."""
    return _VIEW.from_buffer(array) if array.flags.writeable else array.ctypes.data


def _addr(array: np.ndarray) -> int:
    """:func:`_ptr` as an int, for a struct field."""
    ptr = _ptr(array)
    return ptr if type(ptr) is int else ctypes.addressof(ptr)


def _plain(dtype: np.dtype, *arrays) -> bool:
    """Exactly ``ndarray``, of ``dtype``, C-contiguous: what C may address."""
    return all(
        type(a) is np.ndarray and a.dtype == dtype and a.flags.c_contiguous
        for a in arrays
    )


def _rows(array, width: Optional[int] = None) -> bool:
    """A plain float64 array of scalars, or of ``width``-vectors."""
    if not _plain(_F64, array):
        return False
    if width is None:
        return array.ndim == 1
    return array.ndim == 2 and array.shape[1] == width


def _indices(i_idx, j_idx, n_atoms: int) -> bool:
    """Plain int64 pair indices, aligned, every one inside ``[0, n_atoms)``."""
    if not (
        _plain(_I64, i_idx, j_idx) and i_idx.ndim == 1
        and j_idx.shape == i_idx.shape
    ):
        return False
    return len(i_idx) == 0 or (
        min(i_idx.min(), j_idx.min()) >= 0
        and max(i_idx.max(), j_idx.max()) < n_atoms
    )


def _handover(handover, n_pairs: int) -> bool:
    """The four hand-over arrays, shaped to ``n_pairs``."""
    delta, *scalars = handover
    return (
        _rows(delta, 3) and len(delta) == n_pairs
        and all(_rows(a) and len(a) == n_pairs for a in scalars)
    )


def _pairs(i_idx, j_idx, handover, n_atoms: int) -> bool:
    """A pair slice C may run: :func:`_indices`, and :func:`_handover`
    shaped to the slice."""
    return _indices(i_idx, j_idx, n_atoms) and _handover(handover, len(i_idx))


def _vectors(n_atoms: int, *arrays) -> bool:
    """Plain C-contiguous float64 ``(n_atoms, 3)`` arrays (one loop: this
    runs twice a step)."""
    for a in arrays:
        if not (
            type(a) is np.ndarray and a.dtype == _F64
            and a.shape == (n_atoms, 3) and a.flags.c_contiguous
        ):
            return False
    return True


def _kick_args(n_atoms: int, types, scale, velocities, forces) -> bool:
    """A kick C may run: plain ``(n, 3)`` velocities (writeable) and
    forces, ``n`` int32 types and a float64 scale per type (C checks the
    types against it)."""
    return (
        _vectors(n_atoms, velocities, forces) and velocities.flags.writeable
        and _rows(scale) and _plain(_I32, types) and types.shape == (n_atoms,)
    )


def _binned(cells, n_atoms: int) -> bool:
    """A cell list C may walk: plain int64 ``order`` holding atom indices
    inside ``[0, n_atoms)``, ``starts`` rising from 0 to ``n_atoms`` over
    every cell of the grid."""
    order, starts = cells.order, cells.starts
    if not (
        _plain(_I64, order, starts)
        and order.shape == (n_atoms,)
        and starts.shape == (cells.n_total_cells + 1,)
    ):
        return False
    return bool(
        starts[0] == 0
        and starts[-1] == n_atoms
        and np.all(starts[1:] >= starts[:-1])
        and (n_atoms == 0 or (order.min() >= 0 and order.max() < n_atoms))
    )


def _pair_capacity(cells, reach: float) -> int:
    """A first guess at a build's pair count: every cell's atoms at the
    cell's own density, ``(2/3) pi reach^3 n_c^2 / V_c`` summed, plus 10 %
    (1.5x the 7 pairs per atom of a bcc crystal at 3.9 Å).  A clump across
    cell faces beats it; the build then runs once more."""
    counts = np.diff(cells.starts).astype(np.float64)
    guess = 2.0 / 3.0 * np.pi * reach**3 * float(counts @ counts)
    guess /= float(np.prod(cells.cell_size))
    n = cells.n_atoms
    return min(int(1.1 * guess) + 16, n * (n - 1) // 2)


class SDCShared(ctypes.Structure):
    """What every worker of one walked evaluation shares (``sdc_shared``)."""

    _fields_ = [
        ("pot", ctypes.c_void_p),
        ("pos", ctypes.c_void_p),
        ("pair_i", ctypes.c_void_p),
        ("pair_j", ctypes.c_void_p),
        ("lengths", ctypes.c_double * 3),
        ("min_sep", ctypes.c_double),
        ("n_colors", ctypes.c_int64),
        ("rho", ctypes.c_void_p),
        ("fp", ctypes.c_void_p),
        ("forces", ctypes.c_void_p),
        ("delta", ctypes.c_void_p),
        ("r", ctypes.c_void_p),
        ("phi", ctypes.c_void_p),
        ("dphi", ctypes.c_void_p),
        ("dv", ctypes.c_void_p),
        ("barrier", ctypes.c_void_p),
        ("n_waiters", ctypes.c_int64),
        ("parent", ctypes.c_int64),
        ("watch", ctypes.c_void_p),
        ("deadline", ctypes.c_double),
        ("kick", ctypes.c_int64),
        *((name, ctypes.c_void_p) for name in (
            "vel", "slots", "ref", "scale", "mass", "types",
        )),
        ("n_types", ctypes.c_int64),
        *((name, ctypes.c_double) for name in ("half_dt", "dt", "half_skin")),
    ]


class _Carve:
    """Zeroed arrays carved one after another, 64-byte aligned, out of a
    byte block (a forked helper reads only what lies in shared memory);
    without a block, fresh ones."""

    def __init__(self, block=None) -> None:
        self._block, self._at = block, 0

    def __call__(self, shape, dtype=np.float64) -> np.ndarray:
        if self._block is None:
            return np.zeros(shape, dtype)
        dtype, block = np.dtype(dtype), self._block
        base = _addr(block)
        start = -(-(base + self._at) // 64) * 64 - base
        self._at = start + math.prod(shape) * dtype.itemsize
        if self._at > len(block):
            raise ValueError(f"a walk needs {self._at} bytes, its block has {len(block)}")
        out = block[start : self._at].view(dtype).reshape(shape)
        out[...] = 0
        return out


#: species rows of a walk's kick tables, which :meth:`SDCWalk.ring` copies
#: the per-type ``scale`` and ``masses`` into: a system of more species
#: keeps the integrator's own halves
KICK_TYPES = 64


class SDCWalk:
    """``sdc_walk`` laid out for ``n_workers`` over ``n_colors`` colours.

    :meth:`replan` aims it at one plan, whose indices it checks once;
    :meth:`bind` at one evaluation's potential and arrays (False when C may
    not run them); an :class:`SDCTeam` then walks it, worker ``k`` its
    share — ``tasks[k]``, a ``[lo, hi)`` pair range per colour, and
    ``rows[k]`` — meeting its siblings at the ``barrier`` block (the
    layout of :class:`~repro.parallel.backends.workers.ColorBarrier`), the
    calling thread worker 0 through :meth:`run`.  Worker ``k``'s partials
    land in ``energies[k]``: one pair energy per colour, then the
    embedding energy; it also stamps ``marks[k]``: its start, each
    barrier's entry and exit, its end; :meth:`sums` reads them.  A walk
    carved out of a shared ``block`` (the plan's arrays shared too) can be
    walked by helpers the caller forks: :meth:`watch` then makes worker 0
    give up on a lost one.

    :meth:`ring` makes the next walk a step ring: velocity Verlet's
    closing kick over ``rows[k]`` after the last barrier, its seven
    moments into ``slots[k, 1:]``; optionally the kick-drift first, its
    largest squared displacement into ``slots[k, 0]``, then one barrier
    more, after which every worker answers :attr:`REBUILD` when some atom
    moved past half the skin.  On a watched team a ring first meets at a
    barrier that worker 0 enters last, so no row moves unless every
    helper joined: :meth:`joined` says whether it did.  :meth:`bind` makes
    it a plain evaluation again, and binds the same objects once.
    """

    #: :meth:`run`'s statuses besides an overlapping pair's slot, the
    #: status of a forked helper worker 0 gave up on, and a step ring's
    #: stale neighbour list
    DONE, ABORTED, LOST, REBUILD = -1, -2, -3, -4

    def __init__(
        self, fn, n_atoms, n_workers, n_colors, barrier, parent, block=None
    ) -> None:
        self._fn, self.n_atoms, self.n_colors = fn, n_atoms, n_colors
        carve = _Carve(block)
        self._shared = shared = SDCShared.from_buffer(
            carve((ctypes.sizeof(SDCShared),), np.uint8)
        )
        self._ranges = [carve((2 * n_colors,), np.int64) for _ in range(n_workers)]
        self.energies = carve((n_workers, n_colors + 1))
        self.marks = carve((n_workers, 4 * n_colors + 6))
        self.slots = carve((n_workers, 8))
        self.jobs = carve((n_workers, 5), np.int64)
        self._tables = carve((2, KICK_TYPES))
        self._barrier = barrier
        for name, value in (
            ("barrier", barrier), ("slots", self.slots),
            ("scale", self._tables[0]), ("mass", self._tables[1]),
        ):
            setattr(shared, name, _addr(value))
        shared.min_sep, shared.n_colors = MIN_PAIR_SEPARATION, n_colors
        shared.n_waiters, shared.parent = len(barrier) - 1, parent
        self._lowered = self._watched = None
        #: the arrays :meth:`bind` and :meth:`ring` last aimed the struct at
        self._bound, self._kicks = (None,) * 6, (None,) * 3
        self._at = ctypes.addressof(shared)

    @staticmethod
    def block_bytes(n_workers: int, n_colors: int) -> int:
        """Bytes of a ``block`` that holds a walk of ``n_workers`` over
        ``n_colors`` colours (what ``__init__`` carves, aligned)."""
        pieces = [
            ctypes.sizeof(SDCShared), *[16 * n_colors] * n_workers,
            8 * n_workers * (n_colors + 1), 8 * n_workers * (4 * n_colors + 6),
            64 * n_workers, 40 * n_workers, 16 * KICK_TYPES,
        ]
        return sum(pieces) + 64 * len(pieces)  # each piece starts aligned

    def replan(self, pair_i, pair_j, tasks, rows, handover=None, phi=None) -> bool:
        """Aim the walk at a new list's plan: its pairs, their hand-over
        arrays and ``phi`` scratch (else fresh ones), and each worker's
        ``tasks`` and ``rows``; nothing else is laid out again.  False
        (nothing changed) unless the plan has the walk's workers and
        colours and every index lies inside the arrays."""
        n_pairs, n_workers = len(pair_i), len(self.jobs)
        spans, blocks = np.array(tasks, np.int64), np.array(rows, np.int64)
        if not (
            spans.shape == (n_workers, self.n_colors, 2)
            and blocks.shape == (n_workers, 2)
            and _indices(pair_i, pair_j, self.n_atoms)
            and all(  # every [lo, hi) inside what it ranges over
                np.all(0 <= a[..., 0]) and np.all(a[..., 0] <= a[..., 1])
                and np.all(a[..., 1] <= top)
                for a, top in ((spans, n_pairs), (blocks, self.n_atoms))
            )
            and (handover is None or _handover(handover, n_pairs))
            and (phi is None or (_rows(phi) and len(phi) == n_pairs))
        ):
            return False
        self._arrays = self.r = None  # freed before the new ones are made
        delta, self.r, dphi, dv = (
            handover if handover is not None else handover_arrays(n_pairs)
        )
        phi = np.empty(n_pairs) if phi is None else phi
        self.pair_i, self.pair_j = pair_i, pair_j
        for ranges, span in zip(self._ranges, spans):
            ranges[:] = span.reshape(-1)
        #: worker k's ``sdc_job``: its ranges, rows, energies and marks
        self._jobs = [
            (_addr(r), lo, hi, _addr(e), _addr(m))
            for r, (lo, hi), e, m in zip(
                self._ranges, blocks.tolist(), self.energies, self.marks
            )
        ]
        self.jobs[:] = self._jobs
        shared = self._shared
        for name, value in (
            ("pair_i", pair_i), ("pair_j", pair_j), ("delta", delta),
            ("r", self.r), ("phi", phi), ("dphi", dphi), ("dv", dv),
        ):
            setattr(shared, name, _addr(value))
        #: what the struct addresses lives as long as it does
        self._arrays = (delta, dphi, dv, phi)
        return True

    def watch(self, fds) -> None:
        """Worker 0 drives forked helpers: it gives up on helper ``k`` (its
        status :attr:`LOST`) once the pipe end ``fds[k - 1]`` stirs or
        :attr:`deadline` passes, and releases the others."""
        self._watched = np.array(fds, dtype=np.int32)
        self._shared.watch = _addr(self._watched)

    @property
    def deadline(self) -> float:
        """``time.monotonic()`` seconds at which a watching worker 0 gives up."""
        return self._shared.deadline

    @deadline.setter
    def deadline(self, value: float) -> None:
        self._shared.deadline = value

    def bind(self, potential, positions, box, rho, fp, forces) -> bool:
        """Aim the walk at one evaluation: False (nothing bound) unless the
        potential lowers and every array is plain, of the plan's atoms."""
        bound = (potential, positions, box, rho, fp, forces)
        self._shared.kick = 0
        if all(a is b for a, b in zip(bound, self._bound)):
            return True
        lowered = lower_potential(potential)
        n = self.n_atoms
        if lowered is None or not (
            _rows(positions, 3) and _rows(forces, 3) and _rows(rho) and _rows(fp)
            and len(positions) == len(forces) == len(rho) == len(fp) == n
        ):
            return False
        shared, self._lowered, self._bound = self._shared, lowered, bound
        shared.pot = ctypes.addressof(lowered)
        shared.lengths[:] = (box.lengths * box.periodic).tolist()
        for name, array in (
            ("pos", positions), ("rho", rho), ("fp", fp), ("forces", forces)
        ):
            setattr(shared, name, _addr(array))
        return True

    def ring(self, velocities, types, masses, reference, kicks, half_skin) -> bool:
        """Make the next walk a step ring of the bound evaluation: the
        kicks over ``velocities`` with ``types``, the per-type ``masses``
        and ``kicks = (scale, half_dt, dt)``; with ``half_skin`` (negative:
        :attr:`REBUILD` whatever moved) the kick-drift and its check
        against ``reference`` first.  ``scale`` and ``masses`` are copied
        into the walk's tables, the per-atom arrays addressed where they
        are.  False (nothing armed) unless C may address them; C checks
        the types against the tables."""
        (scale, half_dt, dt), shared, n = kicks, self._shared, self.n_atoms
        arrays = (velocities, types, reference)
        if not all(a is b for a, b in zip(arrays, self._kicks)):
            if not (
                _kick_args(n, types, masses, velocities, self._bound[-1])
                and _vectors(n, reference)
            ):
                return False
            self._kicks = arrays
            for name, array in zip(("vel", "types", "ref"), arrays):
                setattr(shared, name, _addr(array))
        n_types = len(scale)
        if not (_rows(scale) and _rows(masses) and n_types == len(masses) <= KICK_TYPES):
            return False
        self._tables[0, :n_types] = scale
        self._tables[1, :n_types] = masses
        shared.n_types, shared.half_dt, shared.dt = n_types, half_dt, dt
        shared.kick = 2 if half_skin is None else 3  # eam.c's KICK, | KICK_DRIFT
        shared.half_skin = -1.0 if half_skin is None else half_skin
        return True

    def joined(self, base: int) -> bool:
        """Whether every worker of the ring from generation ``base`` got
        past its join: worker 0 arrived there, which only it can post."""
        return self._barrier[1, 0] >= base

    def sums(self):
        """The last walk's totals from its workers' partials: ``(pair
        energy, embedding energy, (sum m v^2, sum m v, sum f))``, each
        worker's own first (its pair energies colour by colour; its rows'
        moments in atom order, in C), then the workers ``k = 0 .. p - 1``.
        The moments are a ring's closing kick's."""
        pair, embedding, moments = 0.0, 0.0, [0.0] * 7
        for energies, slot in zip(self.energies.tolist(), self.slots.tolist()):
            worker = 0.0
            for partial in energies[:-1]:
                worker += partial
            pair, embedding = pair + worker, embedding + energies[-1]
            moments = [total + part for total, part in zip(moments, slot[1:])]
        return pair, embedding, (moments[0], tuple(moments[1:4]), tuple(moments[4:]))

    def run(self, base: int, marks=None) -> int:
        """Worker 0's walk, generations ``base`` to ``base + 2C`` (a ring's
        to ``base + 2C + 1``): :attr:`DONE`, :attr:`ABORTED` (a sibling
        left), :attr:`REBUILD`, or the slot of an overlapping pair it found.
        Never leaves a sibling waiting: a raise aborts the barrier."""
        ranges, lo, hi, energies, _ = self._jobs[0]
        try:
            return self._fn(
                self._at, ranges, lo, hi, 0, base, energies,
                None if marks is None else _ptr(marks),
            )
        except BaseException:
            self._barrier[0, 0] = base
            raise

    def stopped(self, statuses) -> bool:
        """Whether the walk's workers (their :meth:`run` statuses) stopped
        a ring for a rebuild; raises the overlap a worker found, or the
        NumPy tier's error for a type the kick's tables do not hold."""
        for slot in statuses:
            if slot >= 0:  # this worker found an overlap; its siblings aborted
                raise self.overlap(slot)
        if self.ABORTED in statuses:  # a type changed in place since the binding
            raise IndexError("an atom type has no entry in the kick's tables")
        return statuses[0] == self.REBUILD

    def overlap(self, slot: int) -> ValueError:
        """The tier's error for the overlapping pair at ``slot``."""
        return overlap_error(
            self.r, slot, (self.pair_i, self.pair_j), MIN_PAIR_SEPARATION
        )


#: the number of forks this process descends from: a team started at a
#: smaller one has no threads here
_forks = 0


def _forked() -> None:
    global _forks
    _forks += 1


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forked)


class SDCTeam:
    """``sdc_team``: ``n_workers - 1`` helpers that persist between walks,
    and the caller as worker 0 — the OpenMP team of the paper's region and
    its master thread.

    :meth:`walk` rings the doorbell, runs worker 0's :meth:`SDCWalk.run`
    on the calling thread, then reads every helper's status from its own
    cache line.  A helper never touches Python: it waits on the doorbell
    (spins, yields, then a futex sleep), walks, and posts.  Without a
    ``block`` the helpers are C threads, helper ``k`` bound to ``cpus[k]``
    when ``cpus`` is given, joined by :meth:`close`.  With one — a shared
    mapping's bytes, ``team_block_bytes`` of them — the team is laid out
    there for helpers the caller forks, each of which then runs
    :meth:`CKernelTier.serve_team` until :meth:`close` stops it; their
    walks must be carved out of the same block.  A team made before a fork
    is not :attr:`usable` in the child.  :meth:`close` is idempotent.
    """

    _team = None

    def __init__(self, calls, n_workers: int, cpus, block=None) -> None:
        start, place, self._ring, self._settle, stop, close = calls
        bind = np.array(cpus, dtype=np.int64) if len(cpus) else None
        bind = None if bind is None else _ptr(bind)
        if block is None:
            self._team, self._close = start(n_workers, bind), close
        else:
            self._team, self._close = place(_ptr(block), n_workers, bind), stop
        if not self._team:
            raise OSError(f"cannot start {n_workers - 1} helper threads")
        self._block = block
        self._status = (ctypes.c_int64 * n_workers)()
        self._forks = _forks
        self._lock = threading.Lock()

    @property
    def usable(self) -> bool:
        return self._team is not None and self._forks == _forks

    def walk(self, walk: SDCWalk, base: int) -> list:
        """Every worker's :meth:`SDCWalk.run` status for one walk of
        ``walk`` from generation ``base``; its helpers have settled even
        when worker 0 raises."""
        n, status = len(walk.jobs), self._status
        with self._lock:
            self._ring(self._team, walk._at, _ptr(walk.jobs), n, base)
            try:
                status[0] = walk.run(base, walk.marks[0])
            finally:
                self._settle(self._team, status)
            return status[:n]

    def close(self) -> None:
        if self.usable:
            self._close(self._team)
        self._team = None

    __del__ = close


class CKernelTier(NumpyKernelTier):
    """The NumPy tier with its hot entry points compiled (module docstring)."""

    name = "c"

    def __init__(self, lib: ctypes.CDLL) -> None:
        super().__init__()
        vp, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        pot = ctypes.POINTER(LoweredPotential)
        self._c_density = lib.eam_density
        self._c_density.argtypes = [
            vp, vp, vp, i64, vp, f64, pot, i64, vp, vp, vp, vp, vp, vp, vp
        ]
        self._c_density.restype = i64
        self._c_scatter = lib.eam_scatter_density
        self._c_scatter.argtypes = [vp, vp, i64, vp, i64, vp]
        self._c_scatter.restype = None
        self._c_force = lib.eam_force
        self._c_force.argtypes = [vp, vp, i64, vp, vp, vp, vp, vp, f64, i64, vp, vp]
        self._c_force.restype = i64
        self._c_embedding = lib.eam_embedding
        self._c_embedding.argtypes = [pot, vp, i64, vp]
        self._c_embedding.restype = f64
        self._c_walk = lib.sdc_walk
        self._c_walk.argtypes = [vp, vp, i64, i64, i64, i64, vp, vp]
        self._c_walk.restype = i64
        start, place, ring, settle, stop, close = (
            lib.sdc_team_start, lib.sdc_team_place, lib.sdc_team_ring,
            lib.sdc_team_settle, lib.sdc_team_stop, lib.sdc_team_close,
        )
        start.argtypes, start.restype = [i64, vp], vp
        place.argtypes, place.restype = [vp, i64, vp], vp
        ring.argtypes, ring.restype = [vp, vp, vp, i64, i64], None
        settle.argtypes, settle.restype = [vp, vp], None
        stop.argtypes = close.argtypes = [vp]
        stop.restype = close.restype = None
        self._c_team = (start, place, ring, settle, stop, close)
        self._c_serve = lib.sdc_team_serve
        self._c_serve.argtypes, self._c_serve.restype = [vp, i64, i64], i64
        self._c_team_bytes = lib.sdc_team_bytes
        self._c_team_bytes.argtypes, self._c_team_bytes.restype = [i64], i64
        self._c_build = lib.nbr_build
        self._c_build.argtypes = [
            vp, vp, i64, vp, vp, vp, vp, f64, i64, i64, vp, vp, vp, vp
        ]
        self._c_build.restype = i64
        self._c_pack = lib.nbr_pack
        self._c_pack.argtypes = [vp, vp, i64, i64, i64, vp, vp]
        self._c_pack.restype = i64
        self._c_bin = lib.nbr_bin
        self._c_bin.argtypes = [vp, i64, vp, vp, vp, vp, vp, vp, vp]
        self._c_bin.restype = i64
        self._c_kick_drift = lib.md_kick_drift
        self._c_kick_drift.argtypes = [
            vp, vp, vp, vp, vp, i64, i64, f64, f64, vp, vp, vp
        ]
        self._c_kick_drift.restype = i64
        self._c_kick = lib.md_kick
        self._c_kick.argtypes = [vp, vp, vp, vp, vp, i64, i64, f64, vp]
        self._c_kick.restype = i64
        simd = lib.eam_simd
        simd.restype = ctypes.c_char_p
        #: the pair-term clone the loader picked for this CPU
        self.simd = simd().decode()

    # --- the passes ---------------------------------------------------------

    def _pass(
        self, potential, positions, box, i_idx, j_idx, handover, rho, half
    ) -> Tuple[np.ndarray, float]:
        """Geometry, overlap check and terms of a pair slice into
        ``handover``; ``phi`` scattered into ``rho`` unless None.  Returns
        ``(phi, sum V)``."""
        lowered = lower_potential(potential)
        delta, r, dphi, dv = handover
        n_pairs = len(i_idx)
        phi = np.empty(n_pairs)
        lengths = box.lengths * box.periodic
        energy = ctypes.c_double(0.0)
        closest = self._c_density(
            _ptr(positions), _ptr(i_idx), _ptr(j_idx), n_pairs, _ptr(lengths),
            MIN_PAIR_SEPARATION, lowered, half,
            None if rho is None else _ptr(rho),
            _ptr(delta), _ptr(r), _ptr(phi), _ptr(dphi), _ptr(dv),
            ctypes.byref(energy),
        )
        if closest >= 0:
            raise overlap_error(r, closest, (i_idx, j_idx), MIN_PAIR_SEPARATION)
        if lowered is not None:
            return phi, energy.value
        phi[:], dphi[:], v, dv[:] = self.pair_terms(potential, r)
        if rho is not None:
            self._c_scatter(
                _ptr(i_idx), _ptr(j_idx), n_pairs, _ptr(phi), half, _ptr(rho)
            )
        return phi, float(np.sum(v))

    def _forces(
        self, i_idx, j_idx, fp, handover, forces, pair_forces, half,
        min_sep=MIN_PAIR_SEPARATION,
    ):
        """Eq. 2 over the handed-over slice, scattered into ``forces`` and/or
        written per pair into ``pair_forces``; ``min_sep=0`` skips the
        overlap check of distances already checked."""
        delta, r, dphi, dv = handover
        closest = self._c_force(
            _ptr(i_idx), _ptr(j_idx), len(i_idx), _ptr(fp),
            _ptr(delta), _ptr(r), _ptr(dphi), _ptr(dv), min_sep, half,
            None if forces is None else _ptr(forces),
            None if pair_forces is None else _ptr(pair_forces),
        )
        if closest >= 0:
            raise overlap_error(r, closest, (i_idx, j_idx), MIN_PAIR_SEPARATION)

    # --- entry points -------------------------------------------------------

    def evaluate(
        self, potential, positions, box, nlist, counter=None, tracer=None
    ):
        n = len(positions)
        i_idx, j_idx = nlist.pair_arrays()
        if not (_rows(positions, 3) and _indices(i_idx, j_idx, n)):
            return super().evaluate(potential, positions, box, nlist, counter, tracer)
        n_pairs, half = len(i_idx), int(nlist.half)
        with span_of(tracer, "density", phase="density"):
            handover = handover_arrays(n_pairs)
            rho = np.zeros(n)
            _, pair_energy = self._pass(
                potential, positions, box, i_idx, j_idx, handover, rho, half
            )
            pair_energy *= 1.0 if half else 0.5
            if counter is not None:
                counter.add("density_pairs", n_pairs)
                counter.add("rho_updates", (2 if half else 1) * n_pairs)
        with span_of(tracer, "embedding", phase="embedding"):
            lowered = lower_potential(potential)
            if lowered is None:
                from repro.potentials.eam import eam_embedding_phase  # imports us

                embedding_energy, fp = eam_embedding_phase(potential, rho, counter)
            else:
                fp = np.empty(n)
                embedding_energy = self._c_embedding(lowered, _ptr(rho), n, _ptr(fp))
                if counter is not None:
                    counter.add("embed_atoms", n)
        with span_of(tracer, "force", phase="force"):
            if not (_rows(fp) and len(fp) == n):
                # an unlowered potential's F'(rho), which C may not address
                forces = self._force(n, half, i_idx, j_idx, *handover, fp, counter)
                return rho, pair_energy, embedding_energy, fp, forces
            forces = np.zeros((n, 3))
            # the density pass checked these distances
            self._forces(i_idx, j_idx, fp, handover, forces, None, half, 0.0)
            if counter is not None:
                counter.add("force_pairs", n_pairs)
                counter.add("force_updates", (2 if half else 1) * n_pairs * 3)
        return rho, pair_energy, embedding_energy, fp, forces

    def pair_pass(self, potential, positions, box, i_idx, j_idx, handover):
        if not (
            _rows(positions, 3) and _pairs(i_idx, j_idx, handover, len(positions))
        ):
            return super().pair_pass(
                potential, positions, box, i_idx, j_idx, handover
            )
        return self._pass(
            potential, positions, box, i_idx, j_idx, handover, None, True
        )

    def pair_forces(self, i_idx, j_idx, fp, handover):
        if not (_rows(fp) and _pairs(i_idx, j_idx, handover, len(fp))):
            return super().pair_forces(i_idx, j_idx, fp, handover)
        out = np.empty((len(i_idx), 3))
        self._forces(i_idx, j_idx, fp, handover, None, out, True)
        return out

    def density_slice(
        self, potential, positions, box, i_idx, j_idx, rho, handover
    ):
        if len(i_idx) == 0:
            return 0.0
        if not (
            _rows(positions, 3)
            and _rows(rho)
            and _pairs(i_idx, j_idx, handover, min(len(positions), len(rho)))
        ):
            return super().density_slice(
                potential, positions, box, i_idx, j_idx, rho, handover
            )
        _, pair_energy = self._pass(
            potential, positions, box, i_idx, j_idx, handover, rho, True
        )
        return pair_energy

    def force_slice(self, i_idx, j_idx, fp, handover, forces):
        if len(i_idx) == 0:
            return
        if not (
            _rows(fp)
            and _rows(forces, 3)
            and _pairs(i_idx, j_idx, handover, min(len(fp), len(forces)))
        ):
            super().force_slice(i_idx, j_idx, fp, handover, forces)
            return
        self._forces(i_idx, j_idx, fp, handover, forces, None, True)

    def sdc_walker(
        self, pair_i, pair_j, tasks, rows, n_atoms, barrier, parent=0,
        handover=None, phi=None, team_block=None,
    ):
        if not (
            len(tasks) and len(tasks[0])
            and _plain(_I64, barrier) and barrier.ndim == 2
            and barrier.shape[1] == 8 and barrier.flags.writeable
        ):
            return None
        block = None
        if team_block is not None:  # the walk goes behind its team
            block = team_block[self._team_part(len(tasks)):]
        walk = SDCWalk(
            self._c_walk, n_atoms, len(tasks), len(tasks[0]), barrier, parent,
            block,
        )
        return walk if walk.replan(pair_i, pair_j, tasks, rows, handover, phi) else None

    def sdc_team(self, n_workers, cpus, block=None):
        if block is not None:
            block = block[: self._team_part(n_workers)]
        return SDCTeam(self._c_team, n_workers, cpus, block)

    def _team_part(self, n_workers: int) -> int:
        return -(-self._c_team_bytes(n_workers) // 64) * 64

    def team_block_bytes(self, n_workers, n_colors):
        return self._team_part(n_workers) + SDCWalk.block_bytes(n_workers, n_colors)

    def serve_team(self, block, k, parent):
        """Forked helper ``k``'s loop on the team laid out in ``block``
        (:class:`SDCTeam`), until the team is stopped: it leaves with its
        parent process ``parent`` too, by ``_exit``."""
        self._c_serve(_ptr(block), k, parent)

    # --- velocity Verlet ----------------------------------------------------

    def kick_drift(
        self, positions, velocities, forces, types, scale, half_dt, dt, box,
        reference=None,
    ):
        n = len(positions)
        moved2 = ctypes.c_double(0.0)
        # C answers -1 for a type with no scale, having written nothing:
        # NumPy then raises its IndexError
        if (
            _kick_args(n, types, scale, velocities, forces)
            and _vectors(n, positions) and positions.flags.writeable
            and (reference is None or _vectors(n, reference))
            and self._c_kick_drift(
                _ptr(positions), _ptr(velocities), _ptr(forces), _ptr(types),
                _ptr(scale), len(scale), n, half_dt, dt,
                _ptr(box.lengths * box.periodic),
                None if reference is None else _ptr(reference),
                ctypes.byref(moved2),
            ) == 0
        ):
            return None if reference is None else math.sqrt(moved2.value)
        return super().kick_drift(
            positions, velocities, forces, types, scale, half_dt, dt, box,
            reference,
        )

    def kick(self, velocities, forces, types, scale, masses, half_dt):
        out = (ctypes.c_double * 7)()
        if (
            _kick_args(len(velocities), types, scale, velocities, forces)
            and _rows(masses) and len(masses) == len(scale)
            and self._c_kick(
                _ptr(velocities), _ptr(forces), _ptr(types), _ptr(scale),
                _ptr(masses), len(scale), len(velocities), half_dt, out,
            ) == 0
        ):
            mv2, px, py, pz, fx, fy, fz = out
            return mv2, (px, py, pz), (fx, fy, fz)
        return super().kick(velocities, forces, types, scale, masses, half_dt)

    # --- the neighbour build ------------------------------------------------

    def bin_cells(self, positions, box, n_cells, cell_size):
        if not _rows(positions, 3):
            return super().bin_cells(positions, box, n_cells, cell_size)
        n = len(positions)
        wrapped = np.empty((n, 3))
        cell_of_atom = np.empty(n, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        starts = np.empty(int(np.prod(n_cells)) + 1, dtype=np.int64)
        grid = [
            np.asarray(box.lengths * box.periodic, dtype=np.float64),
            np.asarray(cell_size, dtype=np.float64),
            np.array(n_cells, dtype=np.int64),
        ]
        if self._c_bin(
            _ptr(positions), n, *(_ptr(a) for a in grid), _ptr(wrapped),
            _ptr(cell_of_atom), _ptr(order), _ptr(starts),
        ) < 0:  # a NaN or inf: NumPy's check names the first
            check_finite(positions, "positions")
        return wrapped, cell_of_atom, order, starts

    def neighbor_csr(self, positions, cells, reach, half):
        n = len(positions)
        if not (_rows(positions, 3) and _binned(cells, n)):
            return super().neighbor_csr(positions, cells, reach, half)
        grid = [
            np.array(cells.n_cells, dtype=np.int64),
            np.array(cells.box.periodic, dtype=np.int64),
            np.array(cells.box.lengths, dtype=np.float64),
        ]
        width = 1 if half else 2  # CSR entries per pair
        offsets = np.empty(n + 1, dtype=np.int64)

        def build(cap):
            # the list before the scratch, so the freed scratch is not left
            # as a hole under a live list
            values = np.empty(width * cap, dtype=np.int64)
            pairs = np.empty((2, cap), dtype=np.int64)
            need = self._c_build(
                _ptr(positions), _ptr(cells.order), n, _ptr(cells.starts),
                *(_ptr(a) for a in grid), reach * reach, width - 1, cap,
                _ptr(pairs[0]), _ptr(pairs[1]), _ptr(offsets),
                values.ctypes.data,  # no buffer export: resized below
            )
            return need, values

        cap = _pair_capacity(cells, reach)
        need, values = build(cap)
        if need > cap:  # nothing past cap was written: once more, with room
            need, values = build(need)
        if need < 0:
            raise MemoryError("no room for the neighbour build's scratch")
        values.resize(width * need, refcheck=False)
        return CSR(offsets=offsets, values=values)

    def pairs_to_csr(self, i_idx, j_idx, n_atoms, mirror=False):
        if not _indices(i_idx, j_idx, n_atoms):
            return super().pairs_to_csr(i_idx, j_idx, n_atoms, mirror)
        offsets = np.empty(n_atoms + 1, dtype=np.int64)
        values = np.empty((2 if mirror else 1) * len(i_idx), dtype=np.int64)
        if self._c_pack(
            _ptr(i_idx), _ptr(j_idx), len(i_idx), n_atoms, int(mirror),
            _ptr(offsets), _ptr(values),
        ) < 0:
            raise MemoryError("no room for the CSR packer's scratch")
        return CSR(offsets=offsets, values=values)

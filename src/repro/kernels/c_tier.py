"""The C kernel tier: ``eam.c`` built by the host's ``cc``, called through
ctypes.

:func:`load` compiles the package's one C source on first use with ``cc
-O3 -ffp-contract=off -shared -fPIC -lm`` into ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``), under a name hashed from the source, the compiler's
``--version`` and the flags: a new source or compiler gets a new file, and
a warm process pays one ``dlopen``.  The build writes a temporary file and
``os.replace``-s it into place, so processes racing the first build each
load a complete library.  A cached file whose ELF section table runs past
its end (a truncated copy) is rebuilt, not loaded.  A 2-pair smoke call
and a 200-atom neighbour build against the NumPy tier then decide whether
the library is used at all.

:class:`CKernelTier` is the NumPy tier with the hot entry points replaced
by single foreign calls, each of which drops the GIL: ``evaluate`` (three
calls: density, embedding, force), the slice bodies ``density_slice`` /
``force_slice`` every colour task runs, and the pair halves ``pair_pass``
/ ``pair_forces`` the comparison strategies scatter their own way, and the
neighbour build ``neighbor_csr`` (the forward-stencil walk and the CSR
packing in one call) with its packer ``pairs_to_csr``.  Every other
primitive is the NumPy tier's.  The contract of
:mod:`repro.kernels.base` is kept on the Python side of each call:

* arguments are checked before the call — anything that is not a
  C-contiguous float64 (int64 for indices) ``ndarray`` of the expected
  shape, which includes racecheck's ``ShadowArray``, and any index outside
  the arrays it addresses, runs the NumPy code instead, so it raises the
  NumPy tier's own error and racecheck sees every write;
* an overlapping pair comes back as the closest pair's slot and raises
  :func:`~repro.kernels.base.overlap_error`, before any accumulator is
  written;
* a potential :mod:`~repro.kernels.lowering` cannot lower gets C geometry,
  NumPy ``pair_terms`` on the returned ``r``, then the C scatters.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass
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

COMPILER = "cc"
#: ``-ffp-contract=off``: no fused multiply-add where the target has one,
#: so the geometry and force coefficient round as NumPy's do
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = "eam.c"

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
#: a zero-length ctypes view passes an array's address for 0.4 µs,
#: against 2 µs for ``ndarray.ctypes.data``
_VIEW = ctypes.c_char * 0


class BuildError(RuntimeError):
    """The C tier cannot be built, loaded or trusted on this host."""


@dataclass(frozen=True)
class BuildStatus:
    """What :func:`load` found: ``state`` is ``"built"`` (compiled in this
    process, ``build_s`` seconds), ``"cached"`` (loaded from the cache) or
    ``"unavailable"`` (``reason`` says why)."""

    state: str
    reason: Optional[str] = None
    so_path: Optional[str] = None
    build_s: Optional[float] = None

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
    """A 2-pair density slice, C against NumPy, to 1e-12; then a 200-atom
    neighbour build, half and full, CSR for CSR."""
    from repro.geometry.box import Box
    from repro.md.neighbor.cells import build_cell_list
    from repro.potentials.johnson_fe import JohnsonFePotential

    potential, box = JohnsonFePotential(), Box((10.0, 10.0, 10.0))
    reference = NumpyKernelTier()
    # both pairs inside the cutoff, the first one across two box faces
    positions = np.array([[1.8, 0.1, 9.9], [9.6, 0.3, 0.1], [9.4, 2.6, 0.8]])
    i_idx, j_idx = np.array([0, 1]), np.array([1, 2])
    got, want = np.zeros(3), np.zeros(3)
    energies = [
        impl.density_slice(
            potential, positions, box, i_idx, j_idx, rho, handover_arrays(2)
        )
        for impl, rho in ((tier, got), (reference, want))
    ]
    if not (
        np.allclose(got, want, rtol=1e-12, atol=0.0)
        and np.isclose(*energies, rtol=1e-12, atol=0.0)
        and np.all(want > 0.0)
    ):
        raise BuildError(
            f"smoke call disagrees with NumPy: rho {got} vs {want}, "
            f"pair energy {energies[0]} vs {energies[1]}"
        )
    # 2,231 pairs on a 3x3x3 grid, 686 across a box face: enough that a
    # walk missing any one stencil offset misses pairs
    gas = np.random.default_rng(0).uniform(0.0, 10.0, size=(200, 3))
    cells = build_cell_list(gas, box, 3.0)
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
        return tier, status
    except Exception as exc:  # noqa: BLE001 - every cause becomes the reason
        reason = str(exc) if isinstance(exc, BuildError) else repr(exc)
        return None, BuildStatus("unavailable", reason=reason, so_path=so_path)


# ---------------------------------------------------------------------------
# the tier
# ---------------------------------------------------------------------------


def _ptr(array: np.ndarray):
    """What ctypes passes for a C-contiguous array's first element."""
    return _VIEW.from_buffer(array) if array.flags.writeable else array.ctypes.data


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


def _pairs(i_idx, j_idx, handover, n_atoms: int) -> bool:
    """A pair slice C may run: :func:`_indices`, and the four hand-over
    arrays shaped to the slice."""
    if not _indices(i_idx, j_idx, n_atoms):
        return False
    delta, *scalars = handover
    n_pairs = len(i_idx)
    return (
        _rows(delta, 3) and len(delta) == n_pairs
        and all(_rows(a) and len(a) == n_pairs for a in scalars)
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
        self._c_build = lib.nbr_build
        self._c_build.argtypes = [
            vp, vp, i64, vp, vp, vp, vp, f64, i64, i64, vp, vp, vp, vp
        ]
        self._c_build.restype = i64
        self._c_pack = lib.nbr_pack
        self._c_pack.argtypes = [vp, vp, i64, i64, i64, vp, vp]
        self._c_pack.restype = None

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

    # --- the neighbour build ------------------------------------------------

    def neighbor_csr(self, positions, cells, reach, half):
        n = len(positions)
        if not (_rows(positions, 3) and _binned(cells, n)):
            return super().neighbor_csr(positions, cells, reach, half)
        xs = np.take(positions, cells.order, axis=0)  # cell order
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
                _ptr(xs), _ptr(cells.order), n, _ptr(cells.starts),
                *(_ptr(a) for a in grid), reach * reach, width - 1, cap,
                _ptr(pairs[0]), _ptr(pairs[1]), _ptr(offsets),
                values.ctypes.data,  # no buffer export: resized below
            )
            return need, values

        cap = _pair_capacity(cells, reach)
        need, values = build(cap)
        if need > cap:  # nothing past cap was written: once more, with room
            need, values = build(need)
        values.resize(width * need, refcheck=False)
        return CSR(offsets=offsets, values=values)

    def pairs_to_csr(self, i_idx, j_idx, n_atoms, mirror=False):
        if not _indices(i_idx, j_idx, n_atoms):
            return super().pairs_to_csr(i_idx, j_idx, n_atoms, mirror)
        offsets = np.empty(n_atoms + 1, dtype=np.int64)
        values = np.empty((2 if mirror else 1) * len(i_idx), dtype=np.int64)
        self._c_pack(
            _ptr(i_idx), _ptr(j_idx), len(i_idx), n_atoms, int(mirror),
            _ptr(offsets), _ptr(values),
        )
        return CSR(offsets=offsets, values=values)

"""The C tier on a real ``.so``: hostile inputs, build states, fallback.

* an index outside the arrays it addresses (a cell list's ``order`` and
  ``starts`` included) never reaches C: the call runs the NumPy code, so
  it raises (or, for NumPy's wrap-around, computes) exactly what the NumPy
  tier does, and leaves the targets as NumPy does;
* overlapping atoms raise the NumPy tier's ``ValueError``, naming the same
  pair, before anything is accumulated;
* ``ShadowArray``, non-contiguous and float32 targets run the NumPy code,
  and so does an unlowered potential's ``F'`` that C may not address;
* the cache: a truncated ``.so`` is rebuilt, so is one built for another
  architecture, two processes racing the first build load one library, a
  broken compiler's stderr reaches the error;
* no compiler on ``PATH``: the default is NumPy, announced once.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro import kernels
from repro.analysis.shadow import TaskWriteLog, wrap_array
from repro.geometry.box import Box
from repro.kernels import c_tier as c_module
from repro.kernels.base import handover_arrays
from repro.kernels.numpy_tier import NumpyKernelTier
from repro.md import Atoms, build_neighbor_list
from repro.md.neighbor.cells import build_cell_list
from repro.obs.recorder import FlightRecorder, get_recorder, set_recorder
from repro.potentials import compute_eam_forces_serial
from repro.potentials.johnson_fe import JohnsonFePotential

FOREIGN = ("_c_density", "_c_force", "_c_scatter", "_c_embedding")

#: one ``c_tier.load()`` in a child process: its status as JSON, or a
#: failed assertion when the tier is unavailable
LOAD_SCRIPT = (
    "import json; from repro.kernels import c_tier; "
    "tier, status = c_tier.load(); "
    "assert tier is not None, status; "
    "print(json.dumps(status.as_dict()))"
)


def child_env():
    """This environment, with this package first on ``PYTHONPATH``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture()
def c_tier():
    if "c" not in kernels.available_tiers():
        pytest.skip(f"C tier unavailable: {kernels.tier_status()['c']['reason']}")
    return kernels.get("c")


@pytest.fixture()
def no_foreign_calls(c_tier, monkeypatch):
    """The C tier with every foreign function replaced by a failure."""

    def forbidden(*args):
        raise AssertionError("a foreign call was made")

    for name in FOREIGN:
        monkeypatch.setattr(c_tier, name, forbidden)
    return c_tier


@pytest.fixture()
def accumulator_writes(c_tier, monkeypatch):
    """The C tier, counting its foreign calls that were handed an
    accumulator (``rho`` / ``forces``) to write; pair passes into the
    hand-over arrays still run in C."""
    writes = []

    def spy(name, slot):
        real = getattr(c_tier, name)

        def call(*args):
            if slot is None or args[slot] is not None:
                writes.append(name)
            return real(*args)

        monkeypatch.setattr(c_tier, name, call)

    spy("_c_density", 8)
    spy("_c_force", 10)
    spy("_c_scatter", None)
    return c_tier, writes


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """An empty library cache and a registry that has loaded nothing."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    kernels.reset()
    return tmp_path / "cache" / "repro"


@pytest.fixture()
def recorder():
    previous = get_recorder()
    fresh = FlightRecorder()
    set_recorder(fresh)
    yield fresh
    set_recorder(previous)


def outcome(call):
    """What a call did: ``("raised", type, message)`` or ``("returned",
    value)``."""
    try:
        return ("returned", call())
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc), str(exc))


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised" or want[1] is None:
        assert got[1:] == want[1:]
        return

    def flat(value):
        parts = value if isinstance(value, tuple) else (value,)
        return np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in parts])

    np.testing.assert_allclose(flat(got[1]), flat(want[1]), rtol=1e-12, atol=1e-12)


def slice_calls(tier, potential, atoms, i_idx, j_idx, rho, forces, fp, handover):
    positions, box = atoms.positions, atoms.box
    return {
        "pair_pass": lambda: tier.pair_pass(
            potential, positions, box, i_idx, j_idx, handover
        ),
        "density_slice": lambda: tier.density_slice(
            potential, positions, box, i_idx, j_idx, rho, handover
        ),
        "pair_forces": lambda: tier.pair_forces(i_idx, j_idx, fp, handover),
        "force_slice": lambda: tier.force_slice(
            i_idx, j_idx, fp, handover, forces
        ),
    }


def run_both(c_tier, potential, atoms, i_idx, j_idx, make_targets, entry):
    """``entry`` on both tiers, each on its own targets: the outcomes and
    the targets afterwards."""
    results = []
    for tier in (c_tier, NumpyKernelTier()):
        rho, forces, fp, handover = make_targets()
        calls = slice_calls(
            tier, potential, atoms, i_idx, j_idx, rho, forces, fp, handover
        )
        results.append((outcome(calls[entry]), np.asarray(rho), np.asarray(forces)))
    return results


@pytest.fixture()
def handed_over(small_atoms, small_nlist, potential):
    """40 pairs of the small system, their hand-over from a NumPy density
    pass, and target factories seeded with non-zero state."""
    i_idx, j_idx = (a[100:140].copy() for a in small_nlist.pair_arrays())
    handover = handover_arrays(40)
    NumpyKernelTier().pair_pass(
        potential, small_atoms.positions, small_atoms.box, i_idx, j_idx, handover
    )
    n = small_atoms.n_atoms

    def targets():
        return (
            np.full(n, 3.0), np.full((n, 3), 7.0), np.linspace(-1.0, -0.2, n),
            [a.copy() for a in handover],
        )

    return i_idx, j_idx, targets


ENTRIES = ("pair_pass", "density_slice", "pair_forces", "force_slice")


class TestOutOfRangeIndices:
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("bad", [-1, -10**6, 250, 10**6])
    def test_slice_entry_points_never_call_c(
        self, no_foreign_calls, potential, small_atoms, handed_over, entry, bad
    ):
        """Past the end raises the NumPy tier's ``IndexError``; a small
        negative index may wrap in NumPy and raise later, or not at all —
        whatever NumPy does, the C tier does, with the same targets."""
        i_idx, j_idx, targets = handed_over
        j_idx = j_idx.copy()
        j_idx[17] = bad
        got, want = run_both(
            no_foreign_calls, potential, small_atoms, i_idx, j_idx, targets, entry
        )
        assert_same(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
        if bad >= 250 or bad == -10**6:
            assert got[0][1] is IndexError

    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_evaluate_never_calls_c(
        self, no_foreign_calls, potential, small_atoms, small_nlist, bad
    ):
        i_idx, j_idx = small_nlist.pair_arrays()
        j_idx = j_idx.copy()
        j_idx[5] = bad
        nlist = SimpleNamespace(half=True, pair_arrays=lambda: (i_idx, j_idx))
        args = (potential, small_atoms.positions, small_atoms.box, nlist)
        got = outcome(lambda: no_foreign_calls.evaluate(*args))
        want = outcome(lambda: NumpyKernelTier().evaluate(*args))
        assert got[0] == want[0] == "raised"
        assert got[1:] == want[1:]


def test_neighbor_build_inputs_c_may_not_walk_run_numpy(c_tier, monkeypatch):
    """A cell list C could read past, and pair indices outside the rows,
    never reach C: the NumPy code runs and does whatever it does."""

    def forbidden(*args):
        raise AssertionError("a foreign call was made")

    monkeypatch.setattr(c_tier, "_c_build", forbidden)
    monkeypatch.setattr(c_tier, "_c_pack", forbidden)
    gas = np.random.default_rng(5).uniform(0.0, 20.0, size=(200, 3))
    cells = build_cell_list(gas, Box((20.0, 20.0, 20.0)), 3.9)

    def edited(field, slot, value):
        array = getattr(cells, field).copy()
        array[slot] = value
        return replace(cells, **{field: array})

    odd = {
        "order past the end": edited("order", 7, 200),
        "negative order": edited("order", 7, -1),
        "int32 order": replace(cells, order=cells.order.astype(np.int32)),
        "starts short of the atoms": edited("starts", -1, 199),
        "falling starts": edited("starts", 3, 10**6),
    }
    numpy_tier = NumpyKernelTier()
    for name, bad in odd.items():
        got, want = (
            outcome(lambda: tier.neighbor_csr(gas, bad, 3.9, True))
            for tier in (c_tier, numpy_tier)
        )
        assert got == want, name
    i_idx = np.array([0, 3, 3])
    for j_idx in (np.array([5, 200, 4]), np.array([5, -1, 4]), np.array([5, 1.0, 4])):
        got, want = (
            outcome(lambda: tier.pairs_to_csr(i_idx, j_idx, 200, mirror=True))
            for tier in (c_tier, numpy_tier)
        )
        assert got == want, j_idx


@pytest.fixture()
def overlapping(sdc_atoms, potential):
    """Atom 1 moved 1e-9 Å from atom 0; the rho/fp/forces rows set to 7."""
    positions = sdc_atoms.positions.copy()
    positions[1] = positions[0] + (0.0, 0.0, 1e-9)
    atoms = Atoms(box=sdc_atoms.box, positions=positions)
    for array in (atoms.rho, atoms.fp, atoms.forces):
        array[...] = 7.0
    nlist = build_neighbor_list(
        positions, atoms.box, cutoff=potential.cutoff, skin=0.3, half=True
    )
    return atoms, nlist


class TestOverlap:
    MESSAGE = r"overlapping atoms: atoms 0 and 1 are separated by 1\.000e-09"

    def test_evaluate_raises_before_writing_the_atoms(
        self, c_tier, potential, overlapping
    ):
        atoms, nlist = overlapping
        with kernels.use_tier(c_tier):
            with pytest.raises(ValueError, match=self.MESSAGE):
                compute_eam_forces_serial(potential, atoms, nlist)
        for array in (atoms.rho, atoms.fp, atoms.forces):
            assert np.all(array == 7.0)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_slice_entry_points_name_the_same_pair(
        self, c_tier, potential, overlapping, entry
    ):
        atoms, nlist = overlapping
        i_idx, j_idx = (a[:200].copy() for a in nlist.pair_arrays())
        n = atoms.n_atoms

        def targets():
            handover = handover_arrays(200)
            handover[1][:] = 2.5
            handover[1][np.flatnonzero((i_idx == 0) & (j_idx == 1))] = 1e-9
            return np.full(n, 3.0), np.full((n, 3), 7.0), np.ones(n), handover

        got, want = run_both(
            c_tier, potential, atoms, i_idx, j_idx, targets, entry
        )
        assert got[0] == want[0]
        assert got[0][:2] == ("raised", ValueError)
        assert "atoms 0 and 1" in got[0][2]
        np.testing.assert_array_equal(got[1], np.full(n, 3.0))
        np.testing.assert_array_equal(got[2], np.full((n, 3), 7.0))


class TestInstrumentedAndOddTargetsRunNumpy:
    @pytest.mark.parametrize(
        "kind", ["plain", "shadow", "non-contiguous", "float32"]
    )
    def test_density_and_force_slices(
        self, accumulator_writes, potential, small_atoms, handed_over, kind
    ):
        """The scatter into such a target is NumPy's; only the slice's
        pair pass into its (plain) hand-over arrays may still run in C."""
        c_tier, writes = accumulator_writes
        i_idx, j_idx, targets = handed_over
        log = TaskWriteLog()

        def odd(array):
            if kind == "plain":  # the control: C writes these
                return array
            if kind == "shadow":
                return wrap_array(array, "target", log)
            if kind == "non-contiguous":
                wide = np.zeros((len(array), 2) + array.shape[1:])
                wide[:, 0] = array
                return wide[:, 0]
            return array.astype(np.float32)

        for entry in ("density_slice", "force_slice"):
            got, want = [], []
            for tier, out in ((c_tier, got), (NumpyKernelTier(), want)):
                rho, forces, fp, handover = targets()
                rho, forces = odd(rho), odd(forces)
                calls = slice_calls(
                    tier, potential, small_atoms, i_idx, j_idx, rho, forces,
                    fp, handover,
                )
                out.append(outcome(calls[entry]))
                out.extend((np.asarray(rho).copy(), np.asarray(forces).copy()))
            assert_same(got[0], want[0])
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12)
            np.testing.assert_allclose(got[2], want[2], rtol=1e-12)
        assert bool(writes) == (kind == "plain"), writes
        if kind == "shadow":  # racecheck saw the writes
            assert set(log.names()) == {"target"}
            assert len(log.flat("target")) > 0


class Float32Embedding(JohnsonFePotential):
    """An unlowered potential whose ``F'(rho)`` comes back as float32."""

    def embed_deriv(self, rho):
        return super().embed_deriv(rho).astype(np.float32)


def test_evaluate_hands_an_odd_embedding_derivative_to_numpy(
    accumulator_writes, small_atoms, small_nlist
):
    c_tier, writes = accumulator_writes
    potential = Float32Embedding()
    args = (potential, small_atoms.positions, small_atoms.box, small_nlist)
    got = c_tier.evaluate(*args)
    want = NumpyKernelTier().evaluate(*args)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    assert "_c_force" not in writes  # the force pass was NumPy's


def test_atomic_strategy_scatters_with_the_gil_held(
    accumulator_writes, potential, small_atoms, small_nlist
):
    """The atomic strategy's threads share ``rho`` and ``forces``; its
    write mode is NumPy's ``np.add.at``, atomic because it holds the GIL.
    A foreign call drops the GIL, so none may write those accumulators
    (one that did lost updates in a few percent of 2-thread evaluations)."""
    from repro.core.strategies.atomic import AtomicStrategy
    from repro.parallel.backends.threads import ThreadBackend

    c_tier, writes = accumulator_writes
    with ThreadBackend(2) as backend, kernels.use_tier(c_tier):
        strategy = AtomicStrategy(n_threads=2, backend=backend)
        result = strategy.compute(potential, small_atoms.copy(), small_nlist)
    assert writes == []
    with kernels.use_tier(NumpyKernelTier()):
        reference = compute_eam_forces_serial(
            potential, small_atoms.copy(), small_nlist
        )
    np.testing.assert_allclose(result.forces, reference.forces, rtol=0, atol=1e-9)


class TestBuildStates:
    def test_status_reports_the_build(self, c_tier):
        status = kernels.tier_status()["c"]
        assert set(status) == {"state", "reason", "so_path", "build_s"}
        assert status["state"] in ("built", "cached")
        assert c_module._intact(Path(status["so_path"]))

    def test_first_build_then_cached_then_truncated_rebuilt(self, fresh_cache):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        tier, status = c_module.load()
        assert tier is not None and status.state == "built"
        assert status.build_s > 0.0
        path = Path(status.so_path)
        assert path.parent == fresh_cache
        assert c_module.load()[1].state == "cached"
        # a new, shorter file in its place (never truncate a mapped one)
        data = path.read_bytes()
        path.unlink()
        path.write_bytes(data[: len(data) // 2])
        assert not c_module._intact(path)
        tier, status = c_module.load()
        assert tier is not None and status.state == "built"
        assert c_module._intact(path)
        assert sorted(p.name for p in fresh_cache.iterdir()) == [path.name]

    def test_two_processes_racing_the_first_build_load_one_library(
        self, fresh_cache
    ):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", LOAD_SCRIPT], env=child_env(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        statuses = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            statuses.append(json.loads(out.strip().splitlines()[-1]))
        assert {s["state"] for s in statuses} <= {"built", "cached"}
        assert statuses[0]["so_path"] == statuses[1]["so_path"]
        path = Path(statuses[0]["so_path"])
        assert c_module._intact(path)
        assert sorted(p.name for p in fresh_cache.iterdir()) == [path.name]

    def test_other_architecture_cached_library_is_rebuilt(self, fresh_cache):
        """An intact ELF that ``dlopen`` rejects — ``e_machine`` patched to
        another architecture — is rebuilt, and the rebuilt tier passes its
        smoke call.  Each load runs in a fresh process: this one's
        ``dlopen`` would hand back a library already mapped under that
        name without reading the file."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")

        def load_elsewhere():
            done = subprocess.run(
                [sys.executable, "-c", LOAD_SCRIPT], env=child_env(),
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout.strip().splitlines()[-1])

        path = Path(load_elsewhere()["so_path"])
        data = bytearray(path.read_bytes())
        e_machine = "<H" if data[5] == 1 else ">H"  # at 0x12, byte order
        machine, = struct.unpack_from(e_machine, data, 0x12)
        other = 183 if machine != 183 else 62  # aarch64, else x86-64
        struct.pack_into(e_machine, data, 0x12, other)
        path.unlink()  # a new file: never rewrite one a process has mapped
        path.write_bytes(bytes(data))
        assert c_module._intact(path)
        status = load_elsewhere()  # LOAD_SCRIPT asserts the smoke call passed
        assert status["state"] == "built" and status["so_path"] == str(path)
        assert struct.unpack_from(e_machine, path.read_bytes(), 0x12) == (machine,)
        assert load_elsewhere()["state"] == "cached"

    def test_broken_compiler_stderr_reaches_the_error(
        self, fresh_cache, tmp_path, monkeypatch
    ):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        fake = bin_dir / "cc"
        fake.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = --version ]; then echo "fake cc 1.0"; exit 0; fi\n'
            "echo 'eam.c:1: error: this compiler is broken' >&2\n"
            "exit 1\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        with pytest.raises(RuntimeError, match="this compiler is broken"):
            kernels.get("c")
        status = kernels.tier_status()["c"]
        assert status["state"] == "unavailable"
        assert "exited 1" in status["reason"]
        assert not any(fresh_cache.glob("*.tmp"))

    def test_failed_smoke_call_is_unavailable(self, fresh_cache, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")

        def disagree(tier):
            raise c_module.BuildError("smoke call disagrees with NumPy")

        monkeypatch.setattr(c_module, "_smoke", disagree)
        with pytest.warns(RuntimeWarning, match="smoke call disagrees"):
            assert kernels.get(None).name == "numpy"
        assert kernels.tier_status()["c"]["state"] == "unavailable"


class TestNoCompilerFallback:
    def test_default_is_numpy_announced_once(
        self, fresh_cache, tmp_path, monkeypatch, recorder
    ):
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc in there
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert kernels.get(None).name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.active_tier().name == "numpy"
        assert kernels.available_tiers() == ("numpy",)
        events = [
            e for e in recorder.events("kernel") if e.event == "tier-fallback"
        ]
        assert len(events) == 1
        assert events[0].severity == "warning"
        assert "no C compiler" in events[0].fields["reason"]
        status = kernels.tier_status()["c"]
        assert status["state"] == "unavailable" and status["so_path"] is None
        with pytest.raises(RuntimeError, match="kernel tier 'c' is unavailable"):
            kernels.get("c")

    def test_doctor_finding_names_the_cause(self, fresh_cache, tmp_path, monkeypatch):
        from repro.harness.doctor import _check_kernel_tier

        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            finding = _check_kernel_tier()
        assert finding.status == "warning"
        assert "resolved 'numpy'; c tier unavailable: no C compiler" in finding.detail


def test_numpy_selection_never_loads_the_c_tier(fresh_cache, monkeypatch):
    """With ``REPRO_KERNEL_TIER=numpy`` the run meta, the health snapshot
    and the doctor's finding run no compiler and write no cache."""
    from repro.harness.doctor import _check_kernel_tier
    from repro.obs.health import HealthMonitor
    from repro.obs.runlog import collect_run_meta

    def forbidden():
        raise AssertionError("the C tier was loaded")

    monkeypatch.setattr(c_module, "load", forbidden)
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    assert collect_run_meta()["kernel_tiers"] == ["numpy"]
    assert HealthMonitor().snapshot()["tier"]["c"]["state"] == "not-loaded"
    finding = _check_kernel_tier()
    assert finding.status == "ok"
    assert finding.detail == "resolved 'numpy'; c tier not-loaded"
    assert not fresh_cache.exists()


def test_source_ships_as_package_data():
    """A non-editable install finds the C source through the package's
    resources, so ``pyproject.toml`` must ship ``kernels/*.c``."""
    source = resources.files("repro.kernels").joinpath(c_module.SOURCE)
    assert source.is_file()
    assert b"eam_density" in source.read_bytes()
    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.is_file():
        assert '"kernels/*.c"' in pyproject.read_text()

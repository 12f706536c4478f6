"""The physics-invariant gate: one suite over potential × backend × precision × species × threads.

Equivalence batteries say "kernel A agrees with kernel B".  This one says
what every kernel must satisfy on its own, whatever its lanes, threads or
rounding: forces are minus the gradient of the energy, momentum and
angular momentum are conserved (Newton's third law for a many-body
potential), the energy does not change under a translation, a rotation
of the cubic cell or a relabelling of the atoms, the virial is the
strain derivative of the energy, and NVE dynamics conserves energy.

The cells are disordered, because a perfect diamond fills every vector
lane the same way: 216-atom amorphous Si and a 15 % Ge copy, committed in
the checkpoint format next to the script that made them
(``tests/fixtures/make_amorphous.py``), jittered by 0.1 A so that the
forces are not those of a minimum.  Tersoff runs on both, Stillinger-Weber
(one species) on the a-Si cell.

Double rows hold at round-off.  Single and mixed rows compute in float32;
their budgets are stated against Fig. 3's 2e-5 relative energy
(:data:`FIG3_REL`), and the derivative checks compare them with central
differences of the double-precision energy of the same backend.  Compiled
rows run on one and on two threads, the grain lowered as in
``tests/test_backends.py::TestThreadInvariance`` so that 216 rows split.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from conftest import needs_compiled
from test_backends import (ENERGY_ULP, FORCES_MAXREL, PERATOM_ULP, TENSOR_MAXREL, assert_same_counts,
                           assert_tracks, maxrel, ulp_diff)
from repro.backends import cext
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si, tersoff_sige
from repro.core.tersoff.production import TersoffProduction
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.lattice import perturbed, seeded_velocities
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.simulation import Simulation
from repro.state import load_checkpoint

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CELLS = {"Si": ("a-si-216.ckpt", tersoff_si), "SiGe": ("a-sige-216.ckpt", tersoff_sige)}

#: Fig. 3: single and mixed precision reproduce the double energy to this
#: relative error; every float32 budget below is a stated multiple of it.
FIG3_REL = 2e-5
#: (energy, forces) budgets: relative energy error (an energy-valued
#: quantity such as the virial is held to it against |E|), and force
#: error relative to the largest force component.  Worst case measured
#: over the matrix in brackets (x86-64, AVX-512 lowering).
BUDGET = {
    "double": (1e-12, 1e-10),            # [2.5e-16, 1.9e-14]
    "single": (FIG3_REL, 5 * FIG3_REL),  # [2.0e-6, 1.6e-5]
    "mixed": (FIG3_REL, 5 * FIG3_REL),   # [1.9e-6, 1.6e-5]
}
#: central differences of the double energy: step, and what the
#: derivative itself is good to (O(h^2) + round-off; measured 3.4e-8
#: eV/A and 5.4e-7 eV)
FD_STEP = 2e-5
FD_FORCE_TOL = 1e-6
FD_VIRIAL_TOL = 1e-5

# maps of the cube onto itself that are plain axis permutations/signs: four
# proper rotations and the inversion x -> -x
ROTATIONS = [
    np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float),  # 90 deg about z
    np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float),  # 90 deg about x
    np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float),  # 120 deg about [111]
    np.array([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=float),  # 180 deg about z
    -np.eye(3),  # inversion
]


@dataclass(frozen=True)
class Row:
    backend: str
    precision: str
    species: str
    threads: int = 1
    potential: str = "tersoff"


def _rows():
    for potential, cells in (("tersoff", CELLS), ("sw", ("Si",))):
        for backend in ("numpy", "compiled"):
            for precision in ("double", "single", "mixed"):
                for species in cells:
                    for threads in ((1,) if backend == "numpy" else (1, 2)):
                        row = Row(backend, precision, species, threads, potential)
                        name = f"{'sw-' if potential == 'sw' else ''}{backend}-{precision}-{species}"
                        if backend == "compiled":
                            yield pytest.param(row, id=f"{name}-t{threads}", marks=needs_compiled)
                        else:
                            yield pytest.param(row, id=name)


ROWS = list(_rows())


@lru_cache(maxsize=None)
def _relaxed(species: str) -> AtomSystem:
    return load_checkpoint(FIXTURES / CELLS[species][0]).system()


def cell(species: str) -> AtomSystem:
    """The fixture, jittered off its minimum (a fresh copy per call)."""
    return perturbed(_relaxed(species), 0.1, seed=3)


@pytest.fixture(params=ROWS)
def row(request, monkeypatch):
    if request.param.backend == "compiled":
        monkeypatch.setattr(cext, "THREAD_GRAIN", 1)
    return request.param


def potential(row: Row, precision: str | None = None):
    if row.potential == "sw":
        pot = StillingerWeberProduction(sw_silicon(), precision=precision or row.precision,
                                        backend=row.backend)
    else:
        pot = TersoffProduction(CELLS[row.species][1](), precision=precision or row.precision,
                                backend=row.backend)
    assert pot.backend_name == row.backend
    if row.backend == "compiled":
        pot.kernel.threads = row.threads
    return pot


def listed(pot, system: AtomSystem) -> NeighborList:
    nl = NeighborList(NeighborSettings(cutoff=pot.cutoff, skin=1.0))
    nl.build(system.x, system.box)
    return nl


def evaluate(pot, system: AtomSystem, nl: NeighborList | None = None):
    res = pot.compute(system, listed(pot, system) if nl is None else nl)
    kernel = res.stats.get("backend")
    if kernel is not None:  # the rows were offered to the row's threads
        assert kernel["threads"] == min(pot.kernel.threads, -(-system.n // 64))
    return res


def assert_same(res, ref, precision: str, forces_ref=None) -> None:
    """Energy and forces within the precision's budget of `ref`."""
    e_rel, f_rel = BUDGET[precision]
    forces_ref = ref.forces if forces_ref is None else forces_ref
    assert abs(res.energy - ref.energy) <= e_rel * abs(ref.energy)
    assert np.max(np.abs(res.forces - forces_ref)) <= f_rel * np.max(np.abs(forces_ref))


def scaled(system: AtomSystem, strain: np.ndarray) -> AtomSystem:
    """`system` under the homogeneous diagonal strain ``1 + strain``."""
    s = 1.0 + strain
    box = Box(system.box.lo * s, system.box.hi * s, system.box.periodic)
    return AtomSystem(box=box, x=system.x * s, type=system.type.copy(),
                      mass=system.mass.copy(), species=system.species)


class TestInvariants:
    def test_forces_are_minus_the_energy_gradient(self, row):
        """... of the double energy, which the row's own energy tracks
        within Fig. 3's budget."""
        system = cell(row.species)
        pot, exact = potential(row), potential(row, "double")
        res = evaluate(pot, system)
        nl = listed(exact, system)
        energy = exact.compute(system, nl).energy
        assert abs(res.energy - energy) <= BUDGET[row.precision][0] * abs(energy)
        rng = np.random.default_rng(11)
        atoms = [int(a) for t in range(len(system.species))
                 for a in rng.choice(np.flatnonzero(system.type == t), size=3, replace=False)]
        scale = np.max(np.abs(res.forces))
        for a in atoms:
            for axis in range(3):
                energies = []
                for sign in (1.0, -1.0):
                    moved = system.copy()
                    moved.x[a, axis] += sign * FD_STEP
                    energies.append(exact.compute(moved, nl).energy)
                fd = -(energies[0] - energies[1]) / (2.0 * FD_STEP)
                allowed = FD_FORCE_TOL + BUDGET[row.precision][1] * scale
                assert abs(res.forces[a, axis] - fd) <= allowed, (a, axis)

    def test_net_force_and_torque_vanish(self, row):
        """Third law: every body's forces sum to zero, so does their sum;
        in an isolated cluster so does their moment (no periodic image
        carries it away)."""
        pot = potential(row)
        system = cell(row.species)
        res = evaluate(pot, system)
        tol = BUDGET[row.precision][1] * np.max(np.abs(res.forces))
        assert np.all(np.abs(res.forces.sum(axis=0)) <= tol)

        centre = 0.5 * (system.box.lo + system.box.hi)
        keep = np.linalg.norm(system.box.minimum_image(system.x - centre), axis=1) < 6.0
        x = system.box.minimum_image(system.x[keep] - centre) + 25.0
        cluster = AtomSystem(box=Box.cubic(50.0, periodic=False), x=x,
                             type=system.type[keep].copy(), mass=system.mass.copy(),
                             species=system.species)
        res = evaluate(pot, cluster)
        tol = BUDGET[row.precision][1] * np.max(np.abs(res.forces))
        assert cluster.n > 30 and np.all(np.abs(res.forces.sum(axis=0)) <= tol)
        arm = x - x.mean(axis=0)
        assert np.all(np.abs(np.cross(arm, res.forces).sum(axis=0)) <= tol * 6.0)

    def test_translation_invariance(self, row):
        pot = potential(row)
        system = cell(row.species)
        ref = evaluate(pot, system)
        shifted = system.copy()
        shifted.x += np.array([1.234, -2.5, 0.77])
        shifted.wrap()
        assert_same(evaluate(pot, shifted), ref, row.precision)

    def test_cubic_rotation_invariance(self, row):
        """The cubic cell maps onto itself: the energy is unchanged and
        the forces rotate (or, under the inversion, flip) with the atoms."""
        pot = potential(row)
        system = cell(row.species)
        ref = evaluate(pot, system)
        for rot in ROTATIONS:
            rotated = AtomSystem(box=system.box, x=system.x @ rot.T, type=system.type.copy(),
                                 mass=system.mass.copy(), species=system.species)
            rotated.wrap()
            assert_same(evaluate(pot, rotated), ref, row.precision, ref.forces @ rot.T)

    def test_permutation_invariance(self, row):
        pot = potential(row)
        system = cell(row.species)
        ref = evaluate(pot, system)
        perm = np.random.default_rng(5).permutation(system.n)
        relabelled = AtomSystem(box=system.box, x=system.x[perm], type=system.type[perm],
                                mass=system.mass.copy(), species=system.species)
        assert_same(evaluate(pot, relabelled), ref, row.precision, ref.forces[perm])

    def test_virial_is_the_strain_derivative(self, row):
        """``W_aa = -dE/d(eps_aa)`` for a homogeneous strain of atoms and
        box along each axis; the tensor is symmetric and its trace is the
        scalar virial."""
        pot, exact = potential(row), potential(row, "double")
        system = cell(row.species)
        res = evaluate(pot, system)
        tensor = res.stats["virial_tensor"]
        assert np.array_equal(tensor, tensor.T)
        assert np.trace(tensor) == pytest.approx(res.virial, rel=1e-12, abs=1e-12)
        eps = 1e-5
        fd = np.empty(3)
        for axis in range(3):
            strain = np.zeros(3)
            strain[axis] = eps
            fd[axis] = -(evaluate(exact, scaled(system, strain)).energy
                         - evaluate(exact, scaled(system, -strain)).energy) / (2.0 * eps)
        allowed = FD_VIRIAL_TOL + BUDGET[row.precision][0] * abs(res.energy)
        assert np.all(np.abs(np.diag(tensor) - fd) <= allowed), (np.diag(tensor), fd)


@pytest.mark.parametrize("row", [p for p in ROWS if p.values[0].backend == "compiled"])
def test_compiled_tracks_the_numpy_oracle(row, monkeypatch):
    """DESIGN.md §12's equivalence bounds, on the disordered cells too.
    In double the scalar virial is held to the tensor's relative bound:
    on a relaxed cell the trace nearly cancels (Tersoff a-Si: -2.1 eV
    against components of 15.5, where 292 ULP are 8e-15 of the tensor)."""
    monkeypatch.setattr(cext, "THREAD_GRAIN", 1)
    system = cell(row.species)
    pot = potential(row)
    nl = listed(pot, system)
    oracle = potential(Row("numpy", row.precision, row.species, 1, row.potential))
    res, ref = evaluate(pot, system, nl), oracle.compute(system, nl)
    assert_same_counts(res, ref)
    if row.precision != "double":
        assert_tracks(res, ref, row.precision)
        return
    tensor = ref.stats["virial_tensor"]
    assert int(ulp_diff(res.energy, ref.energy)[0]) <= ENERGY_ULP
    assert np.max(ulp_diff(res.stats["per_atom_energy"], ref.stats["per_atom_energy"])) <= PERATOM_ULP
    assert maxrel(res.stats["virial_tensor"], tensor) <= TENSOR_MAXREL
    assert abs(res.virial - ref.virial) <= TENSOR_MAXREL * np.max(np.abs(tensor))
    assert maxrel(res.forces, ref.forces) <= FORCES_MAXREL


@pytest.mark.parametrize("row", [p for p in ROWS if p.values[0].backend == "compiled"
                                 and p.values[0].precision == "mixed" and p.values[0].species == "Si"])
def test_a_pruning_instance_returns_a_fresh_instances_bits(row, monkeypatch):
    """From its first call a kernel instance walks the list's inner list:
    the entries within cutoff + skin/2 of a frame, derived again once an
    atom has moved more than skin/4, for another list or another box
    (DESIGN.md §12).  Whatever the atoms, their buffer, the box or the list
    do next, it returns what a fresh instance returns walking the list in
    full (skin 0), bit for bit: forces, per-atom energies, virial sums,
    counters and typed errors."""
    from repro.core.pipeline import InteractionCache, Staging
    from repro.parallel.decomposition import DomainDecomposition
    from test_backends import assert_same_call, kernel_sums

    monkeypatch.setattr(cext, "THREAD_GRAIN", 1)
    system, warm = cell(row.species), potential(row)
    nl = listed(warm, system)
    staged = InteractionCache().prepare(system, nl, warm.kernel)
    x, nb, cut = staged.pairs.x, staged.pairs.neighbors, warm.kernel.kcand_cutoff
    x0, nb0, (i, j) = x.copy(), nb.copy(), staged.pairs.ij

    def call(pot, st, n):
        pot.kernel.threads = row.threads
        try:
            return pot.kernel.evaluate(st, n), kernel_sums(pot)
        except ValueError as exc:
            return type(exc), str(exc)

    def cross(st, steps=1):  # the two atoms of an entry move together (or apart) by half the gap
        (a, b), xs = st.pairs.ij, st.pairs.x
        d = system.box.minimum_image(xs[b] - xs[a])
        r = np.linalg.norm(d, axis=1)
        for step in range(steps):  # in steps of under skin/4, the warm instance called between
            if step:
                call(warm, st, len(xs))
            for e in (np.argmin(np.where(r > cut + 0.5, r, np.inf)), np.argmax(np.where(r < cut, r, 0))):
                gap = (cut - 0.05 if r[e] > cut else cut + 0.05) - r[e]
                xs[a[e]] -= 0.5 * gap * d[e] / r[e] / steps
                xs[b[e]] += 0.5 * gap * d[e] / r[e] / steps

    again = NeighborList(nl.settings)  # restored from its state
    again.set_state(nl.get_state(), system.box)
    dd = DomainDecomposition(system, 2, nl.settings.list_cutoff)  # rank 0: ghost rows blanked
    zero = NeighborList(replace(nl.settings, skin=0.0))  # its inner list is itself
    zero.build(system.x, system.box)
    restored, rank, bare = (InteractionCache().prepare(atoms, lst, warm.kernel) for atoms, lst in (
        (system, again), (dd.domains[0].local_system, dd.ensure_local_list(0, nl.settings)),
        (system, zero)))

    jitter = np.random.default_rng(1).uniform(-0.2, 0.2, x.shape)
    equal, other, shrunk = (Box(system.box.lo.copy(), system.box.hi - s) for s in (0.0, 0.3, 0.6))
    for st, scenario in ((staged, cross), (staged, lambda st: x.__setitem__(7, x[7] + 4.0)),
                         (staged, lambda st: x.__setitem__((3, 1), np.nan)),
                         (staged, lambda st: x.__setitem__(j[0], x[i[0]])),
                         (staged, lambda st: nb.__setitem__(2, system.n + 5)),
                         (staged, lambda st: setattr(st.pairs, "x", x + jitter)),  # a new buffer
                         (staged, lambda st: (cross(st), setattr(st.pairs, "box", equal))),
                         (staged, lambda st: setattr(st.pairs, "box", other)),
                         (staged, lambda st: setattr(st.pairs, "box", shrunk)),  # 20 entries come in
                         (staged, lambda st: (cross(st, 2), call(warm, st, n), cross(st, 2))),  # stale twice
                         (restored, cross), (rank, cross), (bare, cross)):
        x[:], nb[:] = x0, nb0
        staged.pairs.x, staged.pairs.box, n = x, system.box, len(st.pairs.offsets) - 1
        own = st.pairs.x  # a new buffer on every call, then the first one again
        for st.pairs.x in (own.copy(), own.copy(), own):
            call(warm, st, n)
        scenario(st)
        got, want = call(warm, st, n), call(potential(row), Staging(replace(st.pairs, skin=0.0)), n)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert_same_call(*got, *want)
        assert (warm.kernel._inner[1] is st.pairs.neighbors) == (st is bare)


#: sha256 (16 hex digits) of the compiled Tersoff kernel's forces, per-atom
#: energies (the energy is their sum), virial tensor and scalar virial on the
#: jittered a-Si cell, taken before the list walker was split out of the
#: Tersoff kernel; the same on the generic and the host lowering
TERSOFF_DIGESTS = {"double": "582363afbb182367", "single": "5509a24dffa79a2b",
                   "mixed": "e71c0217a36fedcc"}
#: the same for compiled SW (f64 and f32 kernels) on the a-Si cell, taken with
#: its scheme-1a body on four lanes
SW_DIGESTS = {"double": "0f10ca48ec0719b9", "single": "dde3b5d8592bfdc7"}


def _digest(row: Row) -> str:
    res = evaluate(potential(row), cell("Si"))
    digest = hashlib.sha256()
    for a in (res.forces, res.stats["per_atom_energy"], res.stats["virial_tensor"], [res.virial]):
        digest.update(np.asarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


@needs_compiled
@pytest.mark.parametrize("precision", list(TERSOFF_DIGESTS))
def test_compiled_tersoff_did_not_move(precision):
    assert _digest(Row("compiled", precision, "Si")) == TERSOFF_DIGESTS[precision]


@needs_compiled
@pytest.mark.parametrize("precision", list(SW_DIGESTS))
def test_compiled_sw_did_not_move(precision):
    assert _digest(Row("compiled", precision, "Si", potential="sw")) == SW_DIGESTS[precision]


NVE_STEPS = {"compiled": 10_000, "numpy": 1_000}
#: eV/atom over a 1 fs velocity-Verlet run from the relaxed cell at 600 K
#: (it settles near 300 K): the total energy random-walks by ~1e-4 along
#: the Tersoff cutoff's kink, whichever kernel and thread count (measured
#: 1.3e-4 at most), and the means of the first and last fifths of the run
#: differ by less than half that (measured 4.5e-5)
NVE_EXCURSION = 3e-4
NVE_DRIFT = 1e-4


def _nve_rows():
    for p in ROWS:
        row = p.values[0]
        if row.precision == "double":
            yield pytest.param(row, id=p.id.replace("-double", ""),
                               marks=p.marks if row.backend == "compiled" else pytest.mark.slow)


@pytest.mark.parametrize("row", list(_nve_rows()))
def test_nve_energy_is_conserved(row, monkeypatch):
    """Bounded total-energy drift over 10^4 steps on the compiled kernel
    (the numpy rows, slow, over 10^3), with a skin thin enough that the
    list is rebuilt every dozen steps."""
    if row.backend == "compiled":
        monkeypatch.setattr(cext, "THREAD_GRAIN", 1)
    system = _relaxed(row.species).copy()
    seeded_velocities(system, 600.0, seed=17)
    pot = potential(row)
    sim = Simulation(system, pot, neighbor=NeighborSettings(cutoff=pot.cutoff, skin=0.3))
    steps = NVE_STEPS[row.backend]
    result = sim.run(steps, thermo_every=steps // 50)
    assert result.neighbor_builds > steps // 50
    total = np.array([t.e_total for t in result.thermo]) / system.n
    fifth = len(total) // 5
    assert np.max(np.abs(total - total[0])) <= NVE_EXCURSION
    assert abs(total[-fifth:].mean() - total[1:fifth + 1].mean()) <= NVE_DRIFT

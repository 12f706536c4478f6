"""Integrators: velocity Verlet correctness, the C step against its
numpy oracle, thermostats."""

import numpy as np
import pytest
from conftest import needs_compiled
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import cext
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.integrate import Langevin, VelocityRescale, VelocityVerlet
from repro.md.lattice import diamond_lattice, seeded_velocities
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.units import FTM2V


def free_particle(v):
    s = AtomSystem(box=Box.cubic(100.0, periodic=False),
                   x=np.array([[50.0, 50.0, 50.0]]), mass=np.array([10.0]))
    s.v[0] = v
    return s


class TestVelocityVerlet:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            VelocityVerlet(0.0)

    def test_free_flight(self):
        s = free_particle([1.0, -2.0, 0.5])
        vv = VelocityVerlet(0.01)
        for _ in range(10):
            vv.initial_integrate(s)
            vv.final_integrate(s)
        assert np.allclose(s.x[0], [50.0 + 0.1, 50.0 - 0.2, 50.0 + 0.05])
        assert np.allclose(s.v[0], [1.0, -2.0, 0.5])

    def test_constant_force_trajectory(self):
        """x(t) = x0 + v0 t + (F/m) t^2 / 2 under a constant force."""
        s = free_particle([0.0, 0.0, 0.0])
        force = 2.5  # eV/A
        s.f[0, 0] = force
        vv = VelocityVerlet(0.001)
        steps = 200
        for _ in range(steps):
            vv.initial_integrate(s)
            # constant force field: f unchanged
            vv.final_integrate(s)
        t = steps * vv.dt
        accel = force * FTM2V / 10.0
        assert s.x[0, 0] == pytest.approx(50.0 + 0.5 * accel * t * t, rel=1e-10)
        assert s.v[0, 0] == pytest.approx(accel * t, rel=1e-10)

    def test_wraps_positions(self):
        s = AtomSystem(box=Box.cubic(5.0), x=np.array([[4.9, 0.0, 0.0]]), mass=np.array([1.0]))
        s.v[0, 0] = 100.0
        vv = VelocityVerlet(0.01)
        vv.initial_integrate(s)
        assert 0.0 <= s.x[0, 0] < 5.0

    def test_time_reversible(self):
        """Verlet is exactly time-reversible for conservative flow with
        a fixed force field evaluation (here: zero forces)."""
        s = free_particle([3.0, 1.0, -2.0])
        vv = VelocityVerlet(0.05)
        x0, v0 = s.x.copy(), s.v.copy()
        for _ in range(5):
            vv.initial_integrate(s)
            vv.final_integrate(s)
        s.v *= -1
        for _ in range(5):
            vv.initial_integrate(s)
            vv.final_integrate(s)
        assert np.allclose(s.x, x0, atol=1e-12)
        assert np.allclose(-s.v, v0, atol=1e-12)


class SeedVelocityVerlet(VelocityVerlet):
    """The half-kicks as they were written before they reused a scratch
    array: the oracle of the order of operations, kept verbatim."""

    def initial_integrate(self, system):
        inv_m = 1.0 / system.per_atom_mass()[:, None]
        system.v += (0.5 * self.dt * FTM2V) * system.f * inv_m
        system.x += self.dt * system.v
        system.wrap()

    def final_integrate(self, system):
        inv_m = 1.0 / system.per_atom_mass()[:, None]
        system.v += (0.5 * self.dt * FTM2V) * system.f * inv_m


class TestTrajectoriesAreBitwiseTheSeeds:
    """Scratch reuse and the one-species scalar 1/m change no operand and
    no association — ``((dt/2 FTM2V) f) / m``, ``x += dt v`` — so 50 NVE
    steps land on the same bits, two species (a 1/m column) or one."""

    @pytest.mark.parametrize("species", ["sic", "si"])
    def test_fifty_nve_steps(self, species):
        from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
        from repro.core.tersoff.production import TersoffProduction
        from repro.md.lattice import zincblende_sic
        from repro.md.neighbor import NeighborList, NeighborSettings

        params = tersoff_sic() if species == "sic" else tersoff_si()
        lattice = zincblende_sic if species == "sic" else diamond_lattice

        def trajectory(integrator):
            system = lattice(2, 2, 2)
            assert len(system.mass) == (2 if species == "sic" else 1)
            seeded_velocities(system, 900.0, seed=4)
            pot = TersoffProduction(params)
            neigh = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
            neigh.build(system.x, system.box)
            system.f = pot.compute(system, neigh).forces
            for _ in range(50):
                integrator.initial_integrate(system)
                neigh.ensure(system.x, system.box)
                system.f = pot.compute(system, neigh).forces
                integrator.final_integrate(system)
            return system

        new, old = trajectory(VelocityVerlet(0.002)), trajectory(SeedVelocityVerlet(0.002))
        assert np.array_equal(new.x, old.x) and np.array_equal(new.v, old.v)
        assert np.any(new.x != lattice(2, 2, 2).x)  # it did move


@st.composite
def md_states(draw):
    """A system one step of Verlet has to get right: bounds off the origin,
    mixed periodicity, one or two species, and coordinates inside, several
    box lengths outside (two exactly), on ``lo`` or one ULP below it, with
    ``x - lo`` one ULP below the length, ``-0.0`` or NaN; velocities and
    forces with signed zeros."""
    n = draw(st.integers(1, 12))
    ntypes = draw(st.sampled_from([1, 2]))
    lo = np.array([draw(st.sampled_from([0.0, -0.0]) | st.floats(-40, 40)) for _ in range(3)])
    box = Box(lo, lo + np.array([draw(st.floats(2.0, 30.0)) for _ in range(3)]),
              tuple(draw(st.booleans()) for _ in range(3)))

    def coordinate(a):
        lo, span = box.lo[a], box.lengths[a]
        return draw(st.sampled_from([lo, np.nextafter(lo, -np.inf), lo + np.nextafter(span, 0.0),
                                     lo - 2.0 * span, -0.0, np.nan])
                    | st.floats(0.0, 1.0).map(lambda u: lo + u * span)
                    | st.floats(-6.0, 6.0).map(lambda u: lo + u * span))

    def column():
        return draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-50.0, 50.0),
                             min_size=3 * n, max_size=3 * n))

    return AtomSystem(
        box=box, x=np.array([[coordinate(a) for a in range(3)] for _ in range(n)]),
        v=np.reshape(column(), (n, 3)), f=np.reshape(column(), (n, 3)),
        type=np.array(draw(st.lists(st.integers(0, ntypes - 1), min_size=n, max_size=n))),
        mass=np.array([28.0855, 12.011][:ntypes]), species=("Si", "C")[:ntypes],
    ), draw(st.sampled_from([0.001, 0.002, 0.0137]))


def numpy_max_disp2(x, x_ref, box):
    """What `NeighborList.needs_rebuild` compares, from its numpy body."""
    with np.errstate(invalid="ignore", over="ignore"):
        d = box.minimum_image(x - x_ref)
        return float(np.max(np.einsum("ij,ij->i", d, d)))


@needs_compiled
class TestTheCompiledStepIsTheNumpyStep:
    """``_step.c`` behind `initial_integrate`, `final_integrate` and
    `needs_rebuild`: the numpy bodies (``REPRO_NO_CEXT=1``) are its
    oracle, to the bit — NaN where they give NaN, +0.0 where they do."""

    @staticmethod
    def step(system, dt, skins, monkeypatch, numpy):
        with monkeypatch.context() as mp:
            if numpy:
                mp.setenv("REPRO_NO_CEXT", "1")
            s, vv = system.copy(), VelocityVerlet(dt)
            vv.initial_integrate(s)
            drift = (s.x.copy(), s.v.copy())
            vv.final_integrate(s)
            nl = NeighborList(NeighborSettings(cutoff=1.0, skin=1.0))
            nl.set_state({"neighbors": np.empty(0), "offsets": np.zeros(s.n + 1), "n_builds": 1,
                          "version": 1, "x_ref": system.x}, system.box)
            rebuild = []
            for skin in skins:
                nl.settings = NeighborSettings(cutoff=1.0, skin=skin)
                rebuild.append(nl.needs_rebuild(s.x))
            return drift, s.v, s.x, rebuild

    @given(case=md_states())
    @settings(max_examples=400, deadline=None)
    def test_one_step_bitwise(self, case):
        system, dt = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            first = VelocityVerlet(dt)
            moved = system.copy()
            first.initial_integrate(moved)
            worst = numpy_max_disp2(moved.x, system.x, system.box)
            edge = 2.0 * np.sqrt(worst) if np.isfinite(worst) else 1.0
            skins = [1e-3, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 100.0]
            c = self.step(system, dt, skins, monkeypatch, numpy=False)
            ref = self.step(system, dt, skins, monkeypatch, numpy=True)
        (cx, cv), (rx, rv) = c[0], ref[0]
        assert cx.tobytes() == rx.tobytes() and cv.tobytes() == rv.tobytes()
        assert c[1].tobytes() == ref[1].tobytes()
        assert c[3] == ref[3]
        c_worst = cext.load()["md_max_disp2"](
            system.n, c[2].ctypes.data, system.x.ctypes.data, *system.box.lengths,
            *system.box.periodic)
        ref_worst = numpy_max_disp2(ref[2], system.x, system.box)
        assert np.isnan(c_worst) == np.isnan(ref_worst)
        assert np.isnan(c_worst) or c_worst == ref_worst

    def test_the_c_passes_run(self, monkeypatch):
        """The property compares C with numpy only if C runs: every pass
        is taken for a system of contiguous columns, none for one whose
        forces are a strided view (the numpy body runs, same bits)."""
        calls = []
        fns = cext.load()
        monkeypatch.setattr(cext, "load", lambda: {
            name: (lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
            for name, fn in fns.items()})
        s = diamond_lattice(2, 2, 2)
        seeded_velocities(s, 300.0, seed=1)
        vv = VelocityVerlet(0.001)
        vv.initial_integrate(s)
        vv.final_integrate(s)
        nl = NeighborList(NeighborSettings(cutoff=2.0, skin=1.0))
        nl.build(s.x, s.box)
        assert not nl.needs_rebuild(s.x)
        assert calls == ["md_initial", "md_kick", "neighbor_build", "md_max_disp2"]
        s.f = np.zeros((s.n, 6))[:, ::2]
        vv.final_integrate(s)
        assert calls[-1] == "md_max_disp2"


class TestLangevin:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Langevin(-1.0, 0.1, 0.001)
        with pytest.raises(ValueError):
            Langevin(300.0, 0.0, 0.001)

    def test_thermalizes_toward_target(self):
        s = diamond_lattice(2, 2, 2)
        seeded_velocities(s, 10.0, seed=1)
        lan = Langevin(600.0, damping=0.05, dt=0.001, seed=3)
        vv = VelocityVerlet(0.001)
        temps = []
        for step in range(1500):
            vv.initial_integrate(s)
            s.f[:] = 0.0
            lan.apply(s)
            vv.final_integrate(s)
            if step > 1000:
                temps.append(s.temperature())
        mean_t = float(np.mean(temps))
        assert 350.0 < mean_t < 900.0  # stochastic, loose band around 600

    def test_friction_decays_velocity(self):
        s = free_particle([10.0, 0.0, 0.0])
        lan = Langevin(0.0, damping=0.01, dt=0.001, seed=1)
        vv = VelocityVerlet(0.001)
        for _ in range(100):
            vv.initial_integrate(s)
            s.f[:] = 0.0
            lan.apply(s)
            vv.final_integrate(s)
        assert abs(s.v[0, 0]) < 1.0  # decayed from 10 by ~e^-10


class TestVelocityRescale:
    def test_rescales_on_interval(self):
        s = diamond_lattice(2, 2, 2)
        seeded_velocities(s, 1000.0, seed=2)
        vr = VelocityRescale(500.0, every=5)
        vr.maybe_rescale(s, step=3)
        assert s.temperature() == pytest.approx(1000.0)
        vr.maybe_rescale(s, step=5)
        assert s.temperature() == pytest.approx(500.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            VelocityRescale(-5.0)
        with pytest.raises(ValueError):
            VelocityRescale(300.0, every=0)


class TestNoseHoover:
    def test_rejects_bad_params(self):
        from repro.md.integrate import NoseHoover

        with pytest.raises(ValueError):
            NoseHoover(0.0, 0.1, 0.001)
        with pytest.raises(ValueError):
            NoseHoover(300.0, -1.0, 0.001)

    def test_thermalizes_lattice(self):
        """NVT on Tersoff silicon: temperature relaxes toward the target
        (started from a perfect lattice, equipartition halves T0, the
        thermostat must pull it back up)."""
        from repro.core.tersoff.parameters import tersoff_si
        from repro.core.tersoff.production import TersoffProduction
        from repro.md.integrate import NoseHoover
        from repro.md.neighbor import NeighborSettings
        from repro.md.simulation import Simulation

        params = tersoff_si()
        system = diamond_lattice(2, 2, 2)
        seeded_velocities(system, 500.0, seed=7)
        nh = NoseHoover(500.0, damping=0.05, dt=0.001)
        sim = Simulation(system, TersoffProduction(params),
                         neighbor=NeighborSettings(cutoff=params.max_cutoff, skin=1.0),
                         thermostat=nh)
        res = sim.run(600, thermo_every=50)
        late = [t.temperature for t in res.thermo[-4:]]
        mean_late = float(np.mean(late))
        assert 330.0 < mean_late < 680.0  # pulled back toward 500, not T0/2=250

    def test_deterministic(self):
        from repro.md.integrate import NoseHoover

        def run():
            s = diamond_lattice(2, 2, 2)
            seeded_velocities(s, 400.0, seed=9)
            nh = NoseHoover(400.0, damping=0.1, dt=0.001)
            vv = VelocityVerlet(0.001)
            for _ in range(50):
                nh.half_step(s)
                vv.initial_integrate(s)
                s.f[:] = 0.0
                vv.final_integrate(s)
                nh.half_step(s)
            return s.v.copy(), nh.xi

        v1, xi1 = run()
        v2, xi2 = run()
        assert np.array_equal(v1, v2) and xi1 == xi2

    def test_thermostat_energy_tracked(self):
        from repro.md.integrate import NoseHoover

        s = diamond_lattice(2, 2, 2)
        seeded_velocities(s, 1000.0, seed=10)
        nh = NoseHoover(300.0, damping=0.05, dt=0.001)
        assert nh.energy(s) == 0.0
        nh.half_step(s)
        assert nh.xi != 0.0
        assert nh.energy(s) > 0.0

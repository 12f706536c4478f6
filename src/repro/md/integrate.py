"""Time integrators: velocity-Verlet NVE, Langevin, velocity rescale.

The paper's timings "include all other stages, such as communication,
data transfer, neighbor list construction, and time integration"
(Sec. VI, Timing Methodology); the integrator is therefore part of the
measured substrate, not just scaffolding.

All integrators mutate the :class:`~repro.md.atoms.AtomSystem` in
place and leave force evaluation to the caller (the
:class:`~repro.md.simulation.Simulation` driver), mirroring LAMMPS'
``initial_integrate`` / ``final_integrate`` split.
"""

from __future__ import annotations

import numpy as np

from repro.backends import cext
from repro.md.atoms import AtomSystem
from repro.md.units import BOLTZMANN, FTM2V, MVV2E


class VelocityVerlet:
    """NVE velocity-Verlet, the integrator of the paper's benchmarks.

    Split into the two half-kicks around the force evaluation::

        v(t+dt/2) = v(t) + (dt/2) f(t)/m        # initial_integrate
        x(t+dt)   = x(t) + dt v(t+dt/2)
        ... compute f(t+dt) ...
        v(t+dt)   = v(t+dt/2) + (dt/2) f(t+dt)/m  # final_integrate
    """

    def __init__(self, dt: float):
        if dt <= 0.0:
            raise ValueError("timestep must be positive")
        self.dt = float(dt)
        self._tmp = np.empty((0, 3))  # the one (n, 3) temporary of a kick
        self._c: tuple = ((), (), ())  # the last C pass's arrays, kick and drift arguments

    def _half_kick(self, system: AtomSystem) -> None:
        """``v += ((dt/2 FTM2V) f) / m`` — that association, every step."""
        if self._tmp.shape != system.f.shape:
            self._tmp = np.empty_like(system.f)
        np.multiply(0.5 * self.dt * FTM2V, system.f, out=self._tmp)
        np.multiply(self._tmp, 1.0 / system.per_atom_mass()[:, None], out=self._tmp)
        system.v += self._tmp

    def _in_c(self, name: str, system: AtomSystem) -> bool:
        """Run ``_step.c``'s `name` (the numpy body's bits) and return True, or return
        False with nothing written where the extension, C-contiguous f64/int32 columns
        or in-range types are missing.  Addresses are re-read only for new columns."""
        fn = cext.entry(name)
        if fn is None:
            return False
        key = (system.x, system.v, system.f, system.type, system.mass, system.box)
        if len(key) != len(self._c[0]) or any(a is not b for a, b in zip(key, self._c[0])):
            x, v, f, t, m, box = key
            n = x.shape[0]
            if not all(a.dtype == d and a.flags.c_contiguous and a.shape == s for a, d, s in (
                    (x, np.float64, (n, 3)), (v, np.float64, (n, 3)), (f, np.float64, (n, 3)),
                    (t, np.int32, (n,)), (m, np.float64, m.shape[:1]))):
                return False
            self._c = key, (n, v.ctypes.data, f.ctypes.data, t.ctypes.data, m.ctypes.data, m.shape[0]), (
                x.ctypes.data, box.lo.ctypes.data, box.lengths.ctypes.data, *box.periodic)
        c, (_, kick, drift) = 0.5 * self.dt * FTM2V, self._c
        return (fn(c, *kick) if name == "md_kick" else fn(c, *kick, self.dt, *drift)) == 0

    def initial_integrate(self, system: AtomSystem) -> None:
        if self._in_c("md_initial", system):
            return
        self._half_kick(system)
        np.multiply(self.dt, system.v, out=self._tmp)
        system.x += self._tmp
        system.wrap()

    def final_integrate(self, system: AtomSystem) -> None:
        if not self._in_c("md_kick", system):
            self._half_kick(system)


class Langevin:
    """Langevin thermostat force modifier (LAMMPS ``fix langevin``).

    Adds a friction and a stochastic kick to the forces *before* the
    final half-kick; used by the melt example to heat/cool systems.
    """

    def __init__(self, temperature: float, damping: float, dt: float, seed: int = 2016):
        if temperature < 0.0:
            raise ValueError("temperature must be non-negative")
        if damping <= 0.0:
            raise ValueError("damping time must be positive")
        self.temperature = float(temperature)
        self.damping = float(damping)
        self.dt = float(dt)
        self.rng = np.random.default_rng(seed)

    def state_dict(self) -> dict:
        """Checkpointable state, including the exact RNG stream position."""
        return {
            "kind": "langevin",
            "temperature": self.temperature,
            "damping": self.damping,
            "dt": self.dt,
            "rng": self.rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Langevin":
        obj = cls(state["temperature"], state["damping"], state["dt"])
        obj.rng.bit_generator.state = state["rng"]
        return obj

    def apply(self, system: AtomSystem) -> None:
        """Add friction + random forces to ``system.f`` in place."""
        m = system.per_atom_mass()[:, None]
        gamma = m * MVV2E / self.damping
        # friction: -gamma v ; stochastic: sqrt(2 kB T gamma / dt) N(0,1)
        system.f -= gamma * system.v
        sigma = np.sqrt(2.0 * BOLTZMANN * self.temperature * gamma / self.dt)
        system.f += sigma * self.rng.normal(size=system.v.shape)


class NoseHoover:
    """Nosé-Hoover chain thermostat (length 1), LAMMPS ``fix nvt`` style.

    Velocity-scaling update of the thermostat degree of freedom with the
    half-step operator splitting; deterministic (unlike Langevin) and
    produces canonical sampling for ergodic systems.
    """

    def __init__(self, temperature: float, damping: float, dt: float):
        if temperature <= 0.0:
            raise ValueError("Nose-Hoover needs a positive target temperature")
        if damping <= 0.0:
            raise ValueError("damping time must be positive")
        self.temperature = float(temperature)
        self.damping = float(damping)
        self.dt = float(dt)
        self.xi = 0.0  # thermostat velocity (1/ps)

    def state_dict(self) -> dict:
        return {
            "kind": "nose_hoover",
            "temperature": self.temperature,
            "damping": self.damping,
            "dt": self.dt,
            "xi": self.xi,
        }

    @classmethod
    def from_state(cls, state: dict) -> "NoseHoover":
        obj = cls(state["temperature"], state["damping"], state["dt"])
        obj.xi = float(state["xi"])
        return obj

    def half_step(self, system: AtomSystem) -> None:
        """Advance xi half a step and rescale velocities.

        Call once before ``initial_integrate`` and once after
        ``final_integrate`` (the Simulation driver handles this when a
        NoseHoover instance is installed as the thermostat).
        """
        dof = max(3 * system.n - 3, 1)
        ke = system.kinetic_energy()
        t_current = 2.0 * ke / (dof * BOLTZMANN)
        q_inv = 1.0 / (self.damping * self.damping)
        self.xi += 0.5 * self.dt * q_inv * (t_current / self.temperature - 1.0)
        scale = float(np.exp(-self.xi * self.dt * 0.5))
        system.v *= scale

    def energy(self, system: AtomSystem) -> float:
        """The thermostat's conserved-quantity contribution (eV).

        H' = H + (dof kB T / 2) (xi tau)^2 * ... — reported so runs can
        monitor the extended-system conserved quantity.
        """
        dof = max(3 * system.n - 3, 1)
        q = dof * BOLTZMANN * self.temperature * self.damping * self.damping
        return 0.5 * q * self.xi * self.xi


class VelocityRescale:
    """Crude but deterministic thermostat: rescale to a target T."""

    def __init__(self, temperature: float, every: int = 10):
        if temperature < 0.0:
            raise ValueError("temperature must be non-negative")
        if every < 1:
            raise ValueError("rescale interval must be >= 1")
        self.temperature = float(temperature)
        self.every = int(every)

    def state_dict(self) -> dict:
        return {"kind": "velocity_rescale", "temperature": self.temperature, "every": self.every}

    @classmethod
    def from_state(cls, state: dict) -> "VelocityRescale":
        return cls(state["temperature"], state["every"])

    def maybe_rescale(self, system: AtomSystem, step: int) -> None:
        if step % self.every:
            return
        current = system.temperature()
        if current > 0.0:
            system.v *= np.sqrt(self.temperature / current)

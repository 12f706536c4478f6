"""One-shot validation report: run the cross-implementation battery.

``python -m repro validate`` — the adopter's smoke check that the
installation computes correct physics: backend conformance, analytic
forces vs finite differences, every solver vs the reference, the
distributed path vs serial, and NVE conservation.  Each check returns
``(name, ok, detail)``.
"""

from __future__ import annotations

import numpy as np

from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities
from repro.md.neighbor import NeighborList, NeighborSettings


def _listed(system, cutoff, skin=1.0):
    nl = NeighborList(NeighborSettings(cutoff=cutoff, skin=skin, full=True))
    nl.build(system.x, system.box)
    return nl


def run_validation() -> list[tuple[str, bool, str]]:
    """Execute the battery; returns a list of (check, ok, detail)."""
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # 1. backend conformance
    try:
        from repro.vector.selftest import verify_all

        results = verify_all()
        record("vector backend conformance", True,
               f"{len(results)} (ISA x precision) combinations")
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        record("vector backend conformance", False, str(exc))

    # 2. forces vs finite differences (reference implementation)
    from repro.core.tersoff.parameters import tersoff_si
    from repro.core.tersoff.reference import TersoffReference
    from repro.md.potential import finite_difference_forces

    params = tersoff_si()
    system = perturbed(diamond_lattice(2, 2, 2), 0.12, seed=101)
    neigh = _listed(system, params.max_cutoff)
    ref_pot = TersoffReference(params)
    ref = ref_pot.compute(system, neigh)
    fd = finite_difference_forces(ref_pot, system, neigh, atoms=np.arange(3), h=1e-6)
    err = float(np.max(np.abs(ref.forces[:3] - fd)))
    record("analytic forces vs finite differences", err < 1e-5, f"max |dF| = {err:.2e} eV/A")

    # 3. every solver vs the reference
    from repro.core.tersoff.optimized import TersoffOptimized
    from repro.core.tersoff.production import TersoffProduction
    from repro.core.tersoff.vectorized import TersoffVectorized

    production = TersoffProduction(params)  # the default kernel: compiled where it loads
    solvers = {
        "optimized (Alg. 3)": TersoffOptimized(params, kmax=8),
        f"production ({production.backend_name})": production,
        "scheme 1a/avx": TersoffVectorized(params, isa="avx", scheme="1a"),
        "scheme 1b/imci": TersoffVectorized(params, isa="imci", scheme="1b"),
        "scheme 1c/cuda": TersoffVectorized(params, isa="cuda", scheme="1c"),
    }
    for name, solver in solvers.items():
        res = solver.compute(system, neigh)
        de = abs(res.energy - ref.energy)
        df = float(np.max(np.abs(res.forces - ref.forces)))
        record(f"{name} vs reference", de < 1e-8 and df < 1e-9,
               f"|dE| = {de:.1e} eV, max|dF| = {df:.1e} eV/A")

    # 4. Stillinger-Weber path
    from repro.core.sw import (StillingerWeberProduction, StillingerWeberReference,
                               StillingerWeberVectorized, sw_silicon)

    sw = sw_silicon()
    nl_sw = _listed(system, sw.cut)
    sw_ref = StillingerWeberReference(sw).compute(system, nl_sw)
    for name, solver in (
        ("SW production", StillingerWeberProduction(sw)),
        ("SW scheme 1b/imci", StillingerWeberVectorized(sw, isa="imci")),
    ):
        res = solver.compute(system, nl_sw)
        de = abs(res.energy - sw_ref.energy)
        record(f"{name} vs reference", de < 1e-8, f"|dE| = {de:.1e} eV")

    # 5. distributed == serial
    from repro.parallel.decomposition import DomainDecomposition

    big = perturbed(diamond_lattice(4, 4, 4), 0.1, seed=102)
    pot = TersoffProduction(params)
    serial = pot.compute(big, _listed(big, params.max_cutoff))
    dd = DomainDecomposition(big, 8, halo=params.max_cutoff + 1.0)
    energy, forces, _ = dd.compute_forces(pot, skin=1.0)
    de = abs(energy - serial.energy)
    df = float(np.max(np.abs(forces - serial.forces)))
    record("domain decomposition (8 ranks) vs serial", de < 1e-8 and df < 1e-9,
           f"|dE| = {de:.1e} eV, max|dF| = {df:.1e} eV/A")

    # 6. NVE conservation
    from repro.md.simulation import Simulation

    nve = diamond_lattice(2, 2, 2)
    seeded_velocities(nve, 600.0, seed=103)
    sim = Simulation(nve, TersoffProduction(params),
                     neighbor=NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    run = sim.run(120, thermo_every=10)
    e = np.array([t.e_total for t in run.thermo])
    band = float((e.max() - e.min()) / abs(e[0]))
    record("NVE energy conservation (120 steps)", band < 5e-5, f"relative band = {band:.1e}")

    # 7. physics anchors
    perfect = diamond_lattice(2, 2, 2)
    nl_p = _listed(perfect, params.max_cutoff)
    coh = TersoffProduction(params).compute(perfect, nl_p).energy / perfect.n
    record("Si cohesive energy (-4.63 eV/atom)", abs(coh + 4.63) < 0.02,
           f"E/atom = {coh:.4f} eV")
    return checks


def render_validation(checks: list[tuple[str, bool, str]]) -> str:
    lines = ["validation report:"]
    for name, ok, detail in checks:
        mark = "PASS" if ok else "FAIL"
        lines.append(f"  [{mark}] {name:<44s} {detail}")
    n_fail = sum(1 for _, ok, _ in checks if not ok)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)

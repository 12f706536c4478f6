"""What makes ``error_rate`` mean something: every check compares the
child's output with an independent evaluation, after the child has
exited and outside every timed section.

A check is ``(name, passed, detail)``.
"""

from __future__ import annotations

import numpy as np

import workloads


def _fresh_list(spec, potential, skin: float, x, box):
    from repro.md.neighbor import NeighborList, NeighborSettings

    neigh = NeighborList(NeighborSettings(
        cutoff=spec.cutoff(), skin=skin, full=potential.needs_full_list))
    neigh.build(x, box)
    return neigh


def check_md(w: dict, seed: int, report: dict, arrays) -> list[tuple]:
    from repro.runtime import SolverSpec

    out = []
    wants = "compiled/cext" if w["solver"]["backend"] == "compiled" else "numpy"
    out.append(("backend", report["backend"] == wants,
                f"ran {report['backend']}, workload is defined on {wants}"))

    drift = report["drift_per_atom"]
    out.append(("nve-drift", drift <= w["drift_ceiling"],
                f"{drift:.3g} eV/atom over the run, ceiling {w['drift_ceiling']:.3g}"))

    # final-configuration forces against the plainest path there is:
    # double precision, numpy, nothing cached
    system = workloads.md_system(w, seed)
    system.x[:] = arrays["x"]
    spec = SolverSpec(potential=w["solver"]["potential"], mode="Opt-D", cache=False)
    potential = spec.build()
    ref = potential.compute(system, _fresh_list(spec, potential, w["skin"], system.x, system.box))
    err = float(np.max(np.abs(arrays["f"] - ref.forces)) / np.max(np.abs(ref.forces)))
    out.append(("forces-vs-reference", err <= w["force_rtol"],
                f"max |df| / max |f| = {err:.3g}, allowed {w['force_rtol']:.3g}"))

    if w.get("workers") is not None:
        # kinetic energy is a function of the same velocities on both
        # sides, so total energies agree exactly when these do
        rel = abs(report["energy"] - ref.energy) / abs(ref.energy)
        out.append(("decomposed-energy-vs-serial", rel <= 1e-10,
                    f"relative difference {rel:.3g}, allowed 1e-10"))
    return out


def check_serve(w: dict, seed: int, report: dict, arrays) -> list[tuple]:
    """Every 50th answer, bitwise, against ``SolverSpec.build().compute``
    on a list built where the session built its own."""
    out = []
    wants = "compiled/cext"
    out.append(("backend", report["backend"] == wants,
                f"ran {report['backend']}, workload is defined on {wants}"))

    plan = workloads.serve_plan(w, seed, report["clients"])
    potentials: dict = {}
    mismatches = []
    for k, energy in zip(report["sampled"], report["sampled_energy"]):
        _, session, shape, snapshot = plan["requests"][k]
        spec = plan["sessions"][session][1]
        potential = potentials.get(spec.key())
        if potential is None:
            potential = potentials[spec.key()] = spec.build()
        system = plan["systems"][shape][snapshot]
        # a jittered request rides on the list of the warm-up snapshot;
        # any other request had its list built at its own positions
        built_at = plan["systems"][0][0] if w["jitter"] else system
        neigh = _fresh_list(spec, potential, workloads.SERVE_SKIN, built_at.x, system.box)
        ref = potential.compute(system, neigh)
        if not (np.array_equal(ref.forces, arrays[f"f{k}"]) and float(ref.energy) == energy):
            mismatches.append(k)
    out.append(("answers-vs-direct", not mismatches,
                f"{len(report['sampled'])} sampled answers, bitwise; "
                f"mismatches: {mismatches or 'none'}"))
    return out

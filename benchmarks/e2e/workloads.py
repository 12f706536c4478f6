"""The six workloads of the end-to-end benchmark and their seeded inputs.

Every random input comes from ``--seed``: MD velocities, the serve
snapshots, their jitter and the request order.  The program under test
sees only the generated systems and request sequences.

Counts (``steps``, ``requests``) fill about :data:`REFERENCE_SECONDS`
on the 2-core box this was sized on; ``--seconds`` scales them
linearly, so the work of a run is fixed by its arguments and the counts
of the traced pass repeat exactly.
"""

from __future__ import annotations

import numpy as np

#: Seconds the counts below were sized for.
REFERENCE_SECONDS = 8
#: A throughput is the median over this many equal blocks of the run.
BLOCKS = 8
# "probe_every": an MD child times the host probe (child.HostProbe)
# after every so many steps, about every 80 ms.

DEFAULT_SEED = 2016  # the seed results are quoted at
HELD_OUT_SEED = 7919  # never used while tuning: a claim must also hold here

_TERSOFF_COMPILED = {"potential": "tersoff", "mode": "Opt-D", "backend": "compiled"}
_TERSOFF_NUMPY = {"potential": "tersoff", "mode": "Opt-M", "backend": None}
_SW = {"potential": "sw", "mode": "Opt-D", "backend": None}

WORKLOADS: dict[str, dict] = {
    "md-default-4096": {
        "kind": "md",
        "why": "repro run with no flags: numpy Opt-M kernel does nearly all the work, "
               "so a core.tersoff change shows here and a staging change barely",
        "cells": (8, 8, 8), "temperature": 600.0, "skin": 1.0,
        "solver": _TERSOFF_NUMPY, "steps": 400, "probe_every": 4,
        # ceilings sit 10x above what this tree measures (README, Checks)
        "drift_ceiling": 5e-4, "force_rtol": 1e-3,
        "toy": {"cells": (3, 3, 3), "steps": 16},
    },
    "md-solid-compiled-4096": {
        "kind": "md",
        "why": "same atoms on the compiled kernel: the kernel is cheap, so core.pipeline "
               "staging on the cache-hit path decides the step (ROADMAP item 2)",
        "cells": (8, 8, 8), "temperature": 600.0, "skin": 1.0,
        "solver": _TERSOFF_COMPILED, "steps": 1200, "probe_every": 10,
        "drift_ceiling": 5e-4, "force_rtol": 1e-10,
        "toy": {"cells": (3, 3, 3), "steps": 16},
    },
    "md-melt-2048": {
        "kind": "md",
        "why": "6000 K melt at skin 0.5: list rebuilds and cache invalidation instead "
               "of reuse, so a faster build or a cache that taxes misses shows here only",
        "cells": (8, 8, 4), "temperature": 6000.0, "skin": 0.5,
        "solver": _TERSOFF_COMPILED, "steps": 1200, "probe_every": 10,
        "drift_ceiling": 1e-2, "force_rtol": 1e-10,
        "toy": {"cells": (3, 3, 3), "steps": 24},
    },
    "md-decomp-16k-r2": {
        "kind": "md",
        "why": "16384 atoms on 2 workers x 2 ranks: the only workload where decomposition, "
               "halo staging, rank-order reduction and pool start/close do work",
        "cells": (16, 16, 8), "temperature": 600.0, "skin": 1.0,
        "solver": _TERSOFF_COMPILED, "steps": 400, "probe_every": 3, "workers": 2, "ranks": 2,
        "drift_ceiling": 5e-4, "force_rtol": 1e-10,
        "toy": {"cells": (4, 4, 4), "steps": 16},
    },
    "serve-replay-512": {
        "kind": "serve",
        "why": "one warm session, one 512-atom snapshot jittered by 0.02 A: list and staging "
               "stay cached, so codec, validation, queue hand-off and HTTP dominate",
        "requests": 1000, "tenants": 1, "solvers": [_TERSOFF_COMPILED],
        "shapes": [(4, 4, 4)], "base_amplitude": 0.1, "jitter": 0.02, "snapshots": 64,
        "toy": {"requests": 48, "shapes": [(3, 3, 3)]},
    },
    "serve-mixed": {
        "kind": "serve",
        "why": "3 tenants x 3 solvers x 2 shapes at 0.3 A amplitude: every request rebuilds "
               "a list or resets a shape, so pool bookkeeping, md.neighbor and cold staging dominate",
        "requests": 400, "tenants": 3, "solvers": [_TERSOFF_COMPILED, _TERSOFF_NUMPY, _SW],
        "shapes": [(4, 4, 4), (6, 6, 6)], "base_amplitude": 0.3, "jitter": 0.0, "snapshots": 8,
        "toy": {"requests": 36, "shapes": [(3, 3, 3), (4, 4, 4)]},
    },
}

#: Neighbor skin of the evaluation service (``ServeConfig.skin`` default).
SERVE_SKIN = 1.0


def sized(name: str, *, seconds: float, toy: bool) -> dict:
    """The workload record with its counts scaled to ``seconds``."""
    w = dict(WORKLOADS[name])
    if toy:
        w.update(w["toy"])
        return w
    key = "steps" if w["kind"] == "md" else "requests"
    per_block = max(1, round(w[key] * seconds / REFERENCE_SECONDS / BLOCKS))
    w[key] = per_block * BLOCKS
    return w


def solver_spec(solver: dict):
    from repro.runtime import SolverSpec

    return SolverSpec(**solver)


def md_system(w: dict, seed: int):
    """The lattice and seeded velocities ``repro run`` would start from."""
    from repro.md.lattice import diamond_lattice, seeded_velocities

    system = diamond_lattice(*w["cells"])
    seeded_velocities(system, w["temperature"], seed=seed)
    return system


def md_run_spec(w: dict):
    from repro.runtime import RunSpec

    return RunSpec(
        solver=solver_spec(w["solver"]), skin=w["skin"],
        workers=w.get("workers"), ranks=w.get("ranks"),
    )


def serve_plan(w: dict, seed: int, clients: int) -> dict:
    """Sessions, systems and the request sequence of a serve workload.

    ``systems[s]`` is the list of snapshots of shape ``s``; snapshot 0
    of shape 0 warms every session.  A request is ``(client, session,
    shape, snapshot)``.  With several sessions, each is only ever
    driven by one client (``session % clients``), so the sequence a
    session sees — and with it every rebuild decision and counter — is
    fixed by the seed alone, however the two clients interleave.  A
    single session is shared round-robin; its workload never rebuilds
    the list, so the order cannot matter either.
    """
    from repro.md.lattice import diamond_lattice, perturbed

    rng = np.random.default_rng(seed)
    sessions = [
        (f"tenant-{t}", solver_spec(solver))
        for t in range(w["tenants"]) for solver in w["solvers"]
    ]
    systems = []
    for s, cells in enumerate(w["shapes"]):
        lattice = diamond_lattice(*cells)
        if w["jitter"]:
            # one snapshot, re-jittered: displacements stay far below
            # skin/2, so the warm-up list serves every request
            base = perturbed(lattice, w["base_amplitude"], seed=seed + s)
            snaps = [base]
            for _ in range(w["snapshots"]):
                snap = base.copy()
                snap.x += rng.uniform(-w["jitter"], w["jitter"], size=snap.x.shape)
                snaps.append(snap)
        else:
            snaps = [
                perturbed(lattice, w["base_amplitude"], seed=seed + 100 * s + i)
                for i in range(w["snapshots"])
            ]
            _require_rebuilds(snaps)
        systems.append(snaps)

    n_sessions, n_shapes = len(sessions), len(systems)
    combos = [(se, sh) for se in range(n_sessions) for sh in range(n_shapes)]
    # every (session, shape) pair equally often, so the work of each
    # client does not depend on the seed; only the order does
    picks = [combos[k % len(combos)] for k in range(w["requests"])]
    order = rng.permutation(len(picks))
    requests = []
    for k in order:
        session, shape = picks[k]
        client = session % clients if n_sessions > 1 else len(requests) % clients
        if w["jitter"]:
            # concurrent requests never carry the same body: the traced
            # pass links client and server spans by the bytes sent
            per_client = w["snapshots"] // clients
            snapshot = 1 + clients * int(rng.integers(per_client)) + client
        else:
            snapshot = int(rng.integers(w["snapshots"]))
        requests.append((client, session, shape, snapshot))
    return {"sessions": sessions, "systems": systems, "requests": requests}


def _require_rebuilds(snaps) -> None:
    """Any two snapshots differ by more than skin/2 somewhere, so a
    session's list is always the one built at the request's positions."""
    box = snaps[0].box
    for a in range(len(snaps)):
        for b in range(a + 1, len(snaps)):
            d = box.minimum_image(snaps[a].x - snaps[b].x)
            if float(np.max(np.einsum("ij,ij->i", d, d))) <= (0.5 * SERVE_SKIN) ** 2:
                raise ValueError("snapshots too close: a request would reuse another's list")

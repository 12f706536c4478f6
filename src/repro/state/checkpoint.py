"""The ``repro.state`` binary checkpoint format: bitwise resume.

A checkpoint captures *everything* that determines the future of a
:class:`~repro.md.simulation.Simulation`:

- the atom arrays (positions, velocities, forces, types, masses, tags)
  and the box, bit-exact via :func:`repro.state.format.pack_arrays`;
- the integrator step counter and timestep;
- the thermostat, including the exact Langevin RNG stream position;
- the :class:`~repro.md.neighbor.NeighborList` CSR arrays *and* the
  reference positions of its last build — restart must make the same
  rebuild decisions at the same steps, with the same pair ordering,
  or accumulation order (and therefore the last ULP) drifts;
- the :class:`~repro.md.simulation.StageTimers` and
  :class:`~repro.core.pipeline.workspace.CacheStats` accumulators, so
  telemetry is continuous across a restart;
- on the parallel path, the :class:`~repro.parallel.engine.
  ParallelEngine` rank configuration plus the decomposition's build
  positions, from which restore derives every rank's list (see
  :meth:`~repro.parallel.engine.ParallelEngine.get_state`); per-rank
  arrays that older files carry are ignored.

The interaction cache is deliberately *not* serialized: a cold cache
is exact by construction (hits only ever reuse arrays the cold path
recomputes to identical values — the PR-2/PR-5 contract), so resume
warms it on the first step without perturbing a single bit.

File layout::

    8 bytes   magic  b"REPROCK1"
    frame 1   JSON metadata  (schema version, scalars, config)
    frame 2   array block    (pack_arrays manifest + raw buffers)

Writes go to a temporary sibling and are published with ``os.replace``,
so a checkpoint file is either the complete old state or the complete
new state — never a torn mix, even under SIGKILL.

Reading: :func:`load_checkpoint` checks the framing and the schema
version (bumped on incompatible layout changes, refused on mismatch);
``_decode`` then reads every field and array a restore uses and checks
its presence, type and shape before anything is built.  A file either
restores bitwise or is refused with one :class:`CheckpointError` that
names the field.  *Unknown* JSON fields and array names are tolerated
(forward-compatible additions land without a bump).
"""

from __future__ import annotations

import numbers
import os
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.integrate import Langevin, NoseHoover, VelocityRescale
from repro.md.neighbor import NeighborSettings
from repro.md.potential import Potential
from repro.state.format import (
    StateFormatError,
    pack_arrays,
    pack_json,
    read_frame,
    unpack_arrays,
    unpack_json,
    write_frame,
)

CHECKPOINT_MAGIC = b"REPROCK1"
CHECKPOINT_SCHEMA_VERSION = 1

_THERMOSTAT_KINDS = {"langevin": Langevin, "nose_hoover": NoseHoover,
                     "velocity_rescale": VelocityRescale}

_REQUIRED_ARRAYS = ("x", "v", "f", "type", "mass", "tag", "box_lo", "box_hi",
                    "neigh_neighbors", "neigh_offsets")


class CheckpointError(StateFormatError):
    """The file is not a loadable/restorable repro.state checkpoint."""


@contextmanager
def _reading(what: str):
    """A malformed value read inside is a :class:`CheckpointError` naming `what`."""
    try:
        yield
    except CheckpointError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        raise CheckpointError(f"checkpoint {what} is malformed: {detail}") from exc


def _typed(obj, key, kind=numbers.Real):
    """``obj[key]``, refused unless it is a `kind` (a bool counts as no number)."""
    value = obj[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{key!r} is {value!r}, not {kind.__name__}")
    return value


def _ints(obj, *keys) -> dict:
    return {key: _typed(obj, key, numbers.Integral) for key in keys}


def _array(arrays, name, dtype, *shape):
    """A copy of ``arrays[name]``, refused unless it has `dtype` and
    `shape` (``None``: any length on that axis)."""
    arr = arrays[name]
    if (not np.can_cast(arr.dtype, dtype, "equiv") or arr.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, arr.shape))):
        raise ValueError(f"array {name!r} is {arr.dtype.str}{list(arr.shape)}, "
                         f"not {np.dtype(dtype).str}{list(shape)}")
    return arr.copy()


class Checkpoint:
    """A loaded checkpoint: validated metadata + bit-exact arrays."""

    def __init__(self, meta: dict, arrays: dict[str, np.ndarray], path: Path | None = None):
        self.meta = meta
        self.arrays = arrays
        self.path = path

    @property
    def step_index(self) -> int:
        with _reading("step_index"):
            return _typed(self.meta, "step_index", numbers.Integral)

    @property
    def user_meta(self) -> dict:
        user_meta = self.meta.get("user_meta") or {}
        if not isinstance(user_meta, dict):
            raise CheckpointError(f"checkpoint user_meta is {user_meta!r}, not a mapping")
        return user_meta

    @property
    def parallel(self) -> bool:
        return self.meta.get("engine") is not None

    def run_spec(self):
        """The pinned :class:`~repro.runtime.spec.RunSpec`, or ``None``.

        A checkpoint carries the full spec under ``user_meta["run_spec"]``
        — potential, mode, cache, backend, executor, hosts, workers/ranks
        and skin all round-trip, so ``--restart-from`` reproduces the
        original configuration and refuses a flag that differs from it
        (:func:`~repro.runtime.spec.run_from_args`).  Returns ``None``
        when no configuration was pinned at all (checkpoints written
        through the library API with no user_meta).
        The backend is the one that ran (``meta["backend"]``); without
        that pin, ``backend: null`` meant numpy when written.

        Raises :class:`CheckpointError` when the pinned spec is
        unreadable (unknown schema version, a missing or mistyped field,
        Morton-sorted domains, which this build no longer runs) or is a
        pre-runtime ``run_config``.
        """
        from repro.runtime.spec import RunSpec, SpecError

        user_meta = self.user_meta
        if "run_spec" not in user_meta:
            if "run_config" in user_meta:
                raise CheckpointError("checkpoint pins a pre-runtime `run_config`; "
                                      "re-create it with this build")
            return None
        try:
            run = RunSpec.from_dict(user_meta["run_spec"])
            if run.solver.mode != "Ref":
                ran = self.meta.get("backend") or run.solver.backend or "numpy"
                run = run.with_overrides(solver=replace(run.solver, backend=ran))
        except SpecError as exc:
            raise CheckpointError(f"checkpoint pins an unreadable run spec: {exc}") from exc
        return run

    def system(self) -> AtomSystem:
        """Reconstruct the :class:`AtomSystem` (bit-exact arrays).

        Arrays are copied: a restored simulation mutates its system in
        place, and one loaded :class:`Checkpoint` must support several
        independent restores (e.g. the restart-equivalence battery).
        A missing, mistyped or misshapen array or field is a
        :class:`CheckpointError`.
        """
        a, meta = self.arrays, self.meta
        with _reading("atoms"):
            n = len(x := _array(a, "x", np.float64, None, 3))
            periodic = [_typed(meta["box_periodic"], axis, bool) for axis in range(3)]
            species = meta["species"]
            if not isinstance(species, list) or not all(isinstance(s, str) for s in species):
                raise TypeError(f"species {species!r} is not a list of symbols")
            box = Box(_array(a, "box_lo", np.float64, 3), _array(a, "box_hi", np.float64, 3),
                      tuple(periodic))
            return AtomSystem(
                box=box, x=x,
                v=_array(a, "v", np.float64, n, 3), f=_array(a, "f", np.float64, n, 3),
                type=_array(a, "type", np.int32, n),
                mass=_array(a, "mass", np.float64, len(species)), species=tuple(species),
                tag=_array(a, "tag", np.int64, n),
            )


def _decode(ck: Checkpoint) -> dict:
    """Every value a restore uses, read and checked before anything is
    built: a refused checkpoint never starts an engine pool."""
    meta, a = ck.meta, ck.arrays
    system = ck.system()
    n = system.n
    with _reading("neighbor"):
        nmeta = meta["neighbor"]
        settings = NeighborSettings(cutoff=_typed(nmeta, "cutoff"), skin=_typed(nmeta, "skin"),
                                    full=_typed(nmeta, "full", bool))
        offsets = _array(a, "neigh_offsets", np.int64, None)
        neighbors = _array(a, "neigh_neighbors", np.int32, None)
        # an unbuilt list (the parallel path's) is one zero offset
        if (len(offsets) not in (1, n + 1) or offsets[0] != 0 or offsets[-1] != len(neighbors)
                or np.any(np.diff(offsets) < 0) or np.any((neighbors < 0) | (neighbors >= n))):
            raise ValueError("list offsets or indices out of range")
        neigh = {"neighbors": neighbors, "offsets": offsets, **_ints(nmeta, "n_builds", "version"),
                 "x_ref": _array(a, "neigh_x_ref", np.float64, n, 3) if "neigh_x_ref" in a else None}
    with _reading("thermostat"):
        state, thermostat = meta.get("thermostat"), None
        if state is not None:
            if state.get("kind") not in _THERMOSTAT_KINDS:
                raise ValueError(f"unknown kind {state.get('kind')!r}")
            for key in sorted(set(state) - {"kind", "rng"}):
                _typed(state, key)
            thermostat = _THERMOSTAT_KINDS[state["kind"]].from_state(state)
    with _reading("engine"):
        engine = meta.get("engine")
        if engine is not None:
            # a sorted run summed in Morton order: resumed unsorted, its
            # bits would change
            if engine.get("sort"):
                raise CheckpointError(
                    "checkpoint was taken with Morton-sorted domains (sort: true), "
                    "which this build no longer supports"
                )
            counts = _ints(engine, "ranks", "workers")
            if min(counts.values()) < 1:
                raise ValueError(f"{counts} is not a pool")
            warm = None
            if _typed(engine, "warm", bool):
                warm = {"ranks": counts["ranks"],
                        "x_ref": _array(a, "engine_x_ref", np.float64, n, 3),
                        **_ints(engine, "generation", "steps", "rebuild_steps")}
            engine = {**counts, "warm": warm}
    with _reading("run state"):
        dt = _typed(meta, "dt")
        if not dt > 0.0:
            raise ValueError(f"dt {dt} is not positive")
        energy, stats = meta.get("last_energy"), meta.get("cache_stats")
        return {
            "system": system, "settings": settings, "neigh": neigh, "thermostat": thermostat,
            "engine": engine, "dt": float(dt),
            "step_index": ck.step_index,
            "last_energy": None if energy is None else float(_typed(meta, "last_energy")),
            "timers": {k: float(_typed(meta["timers"], k)) for k in meta.get("timers", {})},
            "cache_stats": None if stats is None else {
                **_ints(stats, "hits", "misses", "invalidations"),
                "last_event": _typed(stats, "last_event", str)},
        }


def save_checkpoint(sim, path, *, user_meta: dict | None = None) -> Path:
    """Write `sim`'s full state to `path` (atomically).

    Safe to call between steps — including from a run callback — on
    both the serial and the parallel (``workers=``) path.  ``user_meta``
    is an arbitrary JSON-able dict stored verbatim (the CLI stashes the
    potential configuration there so ``--restart-from`` can rebuild it).
    """
    system, neigh_state = sim.system, sim.neigh.get_state()
    arrays: dict[str, np.ndarray] = {
        "x": system.x, "v": system.v, "f": system.f,
        "type": system.type, "mass": system.mass, "tag": system.tag,
        "box_lo": system.box.lo, "box_hi": system.box.hi,
        "neigh_neighbors": neigh_state["neighbors"], "neigh_offsets": neigh_state["offsets"],
    }
    if neigh_state["x_ref"] is not None:
        arrays["neigh_x_ref"] = neigh_state["x_ref"]

    engine_meta = None
    if sim.engine is not None:
        estate = sim.engine.get_state()
        engine_meta = {"ranks": sim.engine.ranks, "workers": sim.engine.workers,
                       "warm": estate is not None}
        if estate is not None:
            engine_meta.update({k: estate[k] for k in ("generation", "steps", "rebuild_steps")})
            arrays["engine_x_ref"] = estate["x_ref"]

    cache_stats = getattr(sim.potential, "cache_stats", None)
    meta = {
        "format": "repro.state",
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "step_index": sim.step_index,
        # the restored run must NOT re-evaluate forces at resume: the
        # checkpointed f carries post-force modifiers (Langevin kicks)
        # exactly as the uninterrupted run's next step would see them
        "last_energy": None if sim.last_result is None else float(sim.last_result.energy),
        "dt": sim.dt,
        # the kernel that ran, so that a restart resolves no default again
        "backend": getattr(sim.potential, "backend_name", None),
        "species": list(system.species),
        "box_periodic": list(system.box.periodic),
        "neighbor": {
            "cutoff": sim.neigh.settings.cutoff,
            "skin": sim.neigh.settings.skin,
            "full": sim.neigh.settings.full,
            "n_builds": neigh_state["n_builds"],
            "version": neigh_state["version"],
        },
        "thermostat": None if sim.thermostat is None else sim.thermostat.state_dict(),
        "timers": {k: v for k, v in sim.timers.as_dict().items() if k != "total"},
        "cache_stats": None if cache_stats is None else cache_stats.as_dict(),
        "engine": engine_meta,
        "user_meta": user_meta or {},
    }

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        write_frame(fh, pack_json(meta))
        write_frame(fh, pack_arrays(arrays))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and check its framing, schema version and
    arrays' presence; raises :class:`CheckpointError` (a
    :class:`ValueError`) with a specific message on any defect.  The
    values a restore uses are checked by its decode step."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if len(magic) < len(CHECKPOINT_MAGIC):
            raise CheckpointError(f"{path}: file too short for a checkpoint header")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r} (expected {CHECKPOINT_MAGIC!r})")
        try:
            meta_payload = read_frame(fh)
            array_payload = read_frame(fh)
        except StateFormatError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        if meta_payload is None or array_payload is None:
            raise CheckpointError(f"{path}: checkpoint is missing its frames")
    meta = unpack_json(meta_payload)
    version = meta.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_SCHEMA_VERSION}); "
            "re-create the checkpoint with a matching build"
        )
    try:
        arrays = unpack_arrays(array_payload)
    except StateFormatError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    missing = [name for name in _REQUIRED_ARRAYS if name not in arrays]
    if missing:
        raise CheckpointError(f"{path}: checkpoint is missing arrays {missing}")
    return Checkpoint(meta, arrays, path)


def restore_simulation(
    ck: Checkpoint,
    potential: Potential,
    *,
    workers: int | None = None,
    executor=None,
):
    """Rebuild a :class:`~repro.md.simulation.Simulation` from `ck`.

    The caller supplies the potential (checkpoints store *state*, not
    code; the CLI reconstructs the potential from ``user_meta``).  For
    a parallel checkpoint, ``workers`` may differ from the original
    worker count — physics depends only on the checkpointed ``ranks``
    — but a serial checkpoint cannot be resumed parallel (or vice
    versa): rank-local neighbor lists order their pairs differently
    from the global list, which would break the bitwise contract.
    Every value is decoded first, so a :class:`CheckpointError` is
    raised before anything is built.
    """
    from repro.md.potential import ForceResult
    from repro.md.simulation import Simulation

    d = _decode(ck)
    engine, settings = d["engine"], d["settings"]
    if engine is None and workers is not None:
        raise CheckpointError(
            "checkpoint was taken from a serial run; resuming with workers= "
            "would change neighbor-list pair ordering and break bitwise resume"
        )
    if settings.cutoff < potential.cutoff:
        raise CheckpointError(f"checkpoint neighbor cutoff {settings.cutoff} is below "
                              f"the potential's {potential.cutoff}")
    species = getattr(getattr(potential, "params", None), "species", None)
    if species is not None and d["system"].species != tuple(species):
        raise CheckpointError(f"checkpoint species {d['system'].species} are not the "
                              f"potential's {tuple(species)}")
    sim = Simulation(
        d["system"], potential, neighbor=settings, dt=d["dt"], thermostat=d["thermostat"],
        workers=None if engine is None else int(workers or engine["workers"]),
        ranks=None if engine is None else engine["ranks"], executor=executor,
    )
    if engine is not None and engine["warm"] is not None:
        sim.engine.restore_state(engine["warm"])
    sim.neigh.set_state(d["neigh"], sim.system.box)
    sim.step_index = d["step_index"]
    if d["last_energy"] is not None:
        # resume with the checkpointed forces (which include any
        # post-force thermostat modification) instead of recomputing:
        # bitwise-identical to the uninterrupted run's loop state
        sim.last_result = ForceResult(
            energy=d["last_energy"], forces=sim.system.f, stats={"restored": True}
        )
    for stage, seconds in d["timers"].items():
        if hasattr(sim.timers, stage):
            setattr(sim.timers, stage, seconds)
    cache_stats = getattr(potential, "cache_stats", None)
    if d["cache_stats"] is not None and cache_stats is not None:
        for key, value in d["cache_stats"].items():
            setattr(cache_stats, key, value)
    return sim


class Checkpointer:
    """Periodic checkpoint run-callback::

        ckpt = Checkpointer("run.ckpt", every=100, user_meta=config)
        sim.run(2000, callback=[traj, ckpt])

    Writes every ``every`` steps plus once at run end (so a completed
    run always leaves a resumable file); each write is atomic, so a
    kill mid-write leaves the previous checkpoint intact.
    """

    def __init__(self, path, *, every: int, user_meta: dict | None = None):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.user_meta = user_meta
        self.checkpoints_written = 0
        self.last_step_written: int | None = None

    def save(self, sim) -> None:
        save_checkpoint(sim, self.path, user_meta=self.user_meta)
        self.checkpoints_written += 1
        self.last_step_written = sim.step_index

    def __call__(self, sim, step: int) -> None:
        if step % self.every == 0:
            self.save(sim)

    def finalize(self, sim) -> None:
        if self.last_step_written != sim.step_index:
            self.save(sim)

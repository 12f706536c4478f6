"""Chunked, compressed, append-safe binary trajectory streaming.

A text dump (XYZ) is fine for visualization but wrong for production
durability: text frames are large, a killed run leaves a half-written
frame that poisons naive parsers, and append-after-restart needs manual
surgery.  This writer streams each frame as one self-contained CRC'd
zlib frame (:mod:`repro.state.format`), so:

- a SIGKILL'd run loses at most the final partial frame — every
  complete frame is recovered, and the reader reports the torn tail
  instead of failing;
- positions round-trip **bit-exactly** (raw float64, no decimal
  formatting);
- a restarted run appends to the same file after
  :func:`recover_trajectory` drops the torn tail.

File layout: 8-byte magic ``b"REPROTR1"``, then one frame per stored
MD frame.  Frame payload: a :func:`repro.state.format.pack_record`
whose JSON head carries step, species, masses and periodicity and whose
arrays are ``x``, ``box_lo``, ``box_hi``, ``type`` and optionally ``v``.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.state.format import (
    CorruptStateError,
    pack_record,
    read_frame,
    scan_frames,
    unpack_record,
    write_frame,
)

TRAJECTORY_MAGIC = b"REPROTR1"


class BinaryTrajectory:
    """Streaming trajectory writer, usable as a run callback::

        traj = BinaryTrajectory("run.rtrj", every=50)
        sim.run(5000, callback=traj)

    Appends to an existing trajectory (dropping any torn tail first),
    flushes every frame, and — via ``finalize`` — writes the final
    frame even when ``n_steps % every != 0``.
    """

    def __init__(
        self,
        path,
        *,
        every: int = 1,
        velocities: bool = False,
        append: bool = False,
        resume_step: int | None = None,
    ):
        if every < 1:
            raise ValueError("dump interval must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.velocities = bool(velocities)
        self.frames_written = 0
        self.last_step_written: int | None = None
        if append and self.path.exists() and self.path.stat().st_size > 0:
            recover_trajectory(self.path)  # also validates the magic
            if resume_step is not None:
                # a killed run may have streamed frames PAST its last
                # checkpoint; rewind them so the resumed run's frames
                # extend the file in strict step order
                rewind_trajectory(self.path, resume_step)
            self._fh = open(self.path, "ab")
        else:
            self._fh = open(self.path, "wb")
            self._fh.write(TRAJECTORY_MAGIC)
            self._fh.flush()

    def write_frame(self, system: AtomSystem, *, step: int) -> None:
        if self._fh is None:
            raise ValueError("trajectory is closed")
        head = {
            "step": int(step),
            "n": system.n,
            "species": list(system.species),
            "mass": [float(m) for m in system.mass],
            "box_periodic": list(system.box.periodic),
            "has_v": self.velocities,
        }
        arrays = {
            "x": system.x,
            "box_lo": system.box.lo,
            "box_hi": system.box.hi,
            "type": system.type,
        }
        if self.velocities:
            arrays["v"] = system.v
        write_frame(self._fh, pack_record(head, arrays))
        self._fh.flush()
        self.frames_written += 1
        self.last_step_written = step

    def callback(self, sim, step: int) -> None:
        if step % self.every == 0:
            self.write_frame(sim.system, step=step)

    __call__ = callback

    def finalize(self, sim) -> None:
        """Flush the last frame if the stride skipped it (idempotent)."""
        if self.last_step_written != sim.step_index:
            self.write_frame(sim.system, step=sim.step_index)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "BinaryTrajectory":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class TrajectoryFrame:
    """One decoded frame: the MD step it was taken at plus the system."""

    step: int
    system: AtomSystem


@dataclass
class TrajectoryScan:
    """Result of reading a (possibly torn) trajectory file."""

    frames: list[TrajectoryFrame]
    truncated: bool

    @property
    def steps(self) -> list[int]:
        return [f.step for f in self.frames]


def _decode_frame(payload: bytes) -> TrajectoryFrame:
    """One frame's record; a CRC-valid but malformed one is a
    :class:`CorruptStateError`."""
    head, arrays = unpack_record(payload)
    try:
        box = Box(arrays["box_lo"], arrays["box_hi"], tuple(head["box_periodic"]))
        system = AtomSystem(box=box, x=arrays["x"], v=arrays.get("v"), type=arrays["type"],
                            mass=np.asarray(head["mass"], dtype=np.float64),
                            species=tuple(head["species"]))
        return TrajectoryFrame(step=operator.index(head["step"]), system=system)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptStateError(f"malformed trajectory frame: {exc!r}") from exc


@contextmanager
def _open(path: Path):
    """The file positioned after its checked magic."""
    with open(path, "rb") as fh:
        magic = fh.read(len(TRAJECTORY_MAGIC))
        if magic != TRAJECTORY_MAGIC:
            raise CorruptStateError(f"{path}: bad trajectory magic {magic!r} "
                                    f"(expected {TRAJECTORY_MAGIC!r})")
        yield fh


def read_binary_trajectory(path) -> TrajectoryScan:
    """Read every complete frame; a torn tail (killed writer) is
    reported via ``truncated`` instead of raising."""
    with _open(Path(path)) as fh:
        payloads, truncated = scan_frames(fh)
    return TrajectoryScan(frames=[_decode_frame(p) for p in payloads], truncated=truncated)


def rewind_trajectory(path, step: int) -> tuple[int, int]:
    """Truncate frames recorded after MD step `step`, in place.

    Used when resuming from a checkpoint older than the trajectory's
    tail (the run was killed after streaming frames but before its
    next checkpoint).  Assumes a clean file (run
    :func:`recover_trajectory` first).  Returns
    ``(kept_frames, dropped_frames)``.
    """
    path = Path(path)
    kept = dropped = 0
    keep_until = len(TRAJECTORY_MAGIC)
    with _open(path) as fh:
        for payload in iter(lambda: read_frame(fh), None):
            if dropped == 0 and _decode_frame(payload).step <= step:
                kept += 1
                keep_until = fh.tell()
            else:
                # everything from the first too-new frame on goes,
                # so the kept prefix stays strictly step-ordered
                dropped += 1
    if dropped:
        with open(path, "r+b") as fh:
            fh.truncate(keep_until)
    return kept, dropped


def recover_trajectory(path) -> tuple[int, int]:
    """Drop a torn tail in place so the file is clean for appending.

    Returns ``(complete_frames, bytes_dropped)``.  A no-op (0 bytes
    dropped) on an intact file.
    """
    path = Path(path)
    with _open(path) as fh:
        payloads, _ = scan_frames(fh)
        keep = fh.tell()
    dropped = path.stat().st_size - keep
    if dropped:
        with open(path, "r+b") as fh:
            fh.truncate(keep)
    return len(payloads), dropped

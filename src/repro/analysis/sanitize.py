"""Runtime companion to the static rules: FP-exception and NaN guards.

Static analysis proves *discipline* (dtype flow, errstate enclosure,
approved scatters); it cannot prove *values*.  This module catches what
the AST pass cannot:

- :func:`sanitize` runs a block under ``np.errstate`` with divide /
  invalid / overflow raised as :class:`FloatingPointError`.  Kernels
  that deliberately compute garbage on masked-off lanes already wrap
  those ops in their own inner ``np.errstate(...ignore...)`` (enforced
  by rule KA004), and inner contexts override outer ones — so under
  ``sanitize()`` only *unguarded* FP faults raise.  Underflow stays
  unraised: ``exp(-large)`` flushing to zero is physics, not a bug.
- :func:`check_force_result` NaN/Inf-guards every numeric field of a
  :class:`~repro.md.potential.ForceResult` (energy, forces, virial and
  the array entries of ``stats``), so a poisoned lane that survived a
  masked blend is caught at the call boundary with a named field.
- :class:`SanitizedPotential` wraps any potential with both checks;
  ``repro run --sanitize`` wires it around the solver for debug runs.

This is a debug tool: the wrapper adds per-call ``np.isfinite``
reductions, so it is never enabled by default.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceResult, Potential


class SanitizeError(FloatingPointError):
    """A force evaluation produced non-finite values or raised an FP fault."""


@contextmanager
def sanitize():
    """Run the enclosed block with unguarded FP faults raised.

    divide / invalid / over raise :class:`FloatingPointError`;
    underflow is left alone (flush-to-zero of ``exp(-large)`` is
    expected).  Inner ``np.errstate(...ignore...)`` contexts — the
    KA004-mandated guards around masked math — still apply.
    """
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        yield


def _check_array(name: str, value, problems: list[str]) -> None:
    arr = np.asarray(value)
    if arr.dtype.kind not in "fc":
        return
    if not np.all(np.isfinite(arr)):
        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
        problems.append(f"{name}: {bad} non-finite element(s)")


def check_force_result(result: ForceResult, *, context: str = "") -> ForceResult:
    """Raise :class:`SanitizeError` if any numeric field is non-finite.

    Checks ``energy``, ``forces``, ``virial`` and every float array in
    ``stats`` (one level deep — e.g. ``virial_tensor``,
    ``per_atom_energy``); returns the result unchanged when clean.
    """
    problems: list[str] = []
    if not np.isfinite(result.energy):
        problems.append(f"energy: {result.energy!r}")
    if not np.isfinite(result.virial):
        problems.append(f"virial: {result.virial!r}")
    _check_array("forces", result.forces, problems)
    for key, value in result.stats.items():
        if isinstance(value, np.ndarray):
            _check_array(f"stats[{key!r}]", value, problems)
    if problems:
        where = f" ({context})" if context else ""
        raise SanitizeError(
            f"non-finite force result{where}: " + "; ".join(problems)
        )
    return result


class SanitizedPotential(Potential):
    """Debug wrapper: inner potential + FP-exception + NaN guards.

    Transparent to the simulation loop — cutoff and list requirements
    are forwarded, and the wrapped result is returned unmodified when
    clean.
    """

    def __init__(self, inner: Potential):
        self.inner = inner
        self.cutoff = inner.cutoff
        self.needs_full_list = inner.needs_full_list

    def __getattr__(self, name: str):
        # forward solver attributes (params, ...); none to a copy being built
        return getattr(self.__dict__.get("inner"), name)

    def compute(self, system: AtomSystem, neigh: NeighborList) -> ForceResult:
        try:
            with sanitize():
                result = self.inner.compute(system, neigh)
        except FloatingPointError as exc:
            if isinstance(exc, SanitizeError):
                raise
            raise SanitizeError(
                f"unguarded floating-point fault in {type(self.inner).__name__}.compute: {exc}"
            ) from exc
        return check_force_result(
            result, context=f"{type(self.inner).__name__}, n={system.n}"
        )

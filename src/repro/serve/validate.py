"""Tiered request validation for the evaluation service.

Every inbound request passes four tiers, cheapest first, and the first
failure wins.  Failures carry a machine-readable ``(tier, code)`` pair
so clients (and the CI malformed-request taxonomy test) can assert on
*why* a request was refused, not just that it was:

========  ====================================================
tier      what it checks
========  ====================================================
``L0``    envelope schema: JSON object, schema version, required
          fields, a well-formed :class:`~repro.runtime.SolverSpec`
``L1``    shapes and dtypes: positions parse to ``(n, 3)`` float64,
          type indices to ``(n,)`` ints, the box to two 3-vectors
``L2``    physical sanity: finite values, non-empty, size cap,
          positive box extent, type indices inside the species table
``L3``    feasibility: the spec's parameter set covers the species and
          its cutoff (plus skin) fits the box under minimum image
========  ====================================================

The tiers are ordered so that no numerical work touches data that has
not already passed the structural checks — tier L3 is the only one
that needs the parameter set, and parameter builds are memoized per
spec.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.units import DEFAULT_SKIN
from repro.runtime.spec import SolverSpec, SpecError
from repro.serve.protocol import SERVE_SCHEMA_VERSION

#: Refuse requests above this many atoms (tier L2 ``too_large``) —
#: a single oversized request would monopolize the dispatcher.
DEFAULT_MAX_ATOMS = 65536


class RequestError(ValueError):
    """A request refused by one of the validation tiers.

    Attributes
    ----------
    tier:
        ``"L0"`` .. ``"L3"``.
    code:
        Stable machine-readable reason (e.g. ``"bad_positions"``).
    """

    def __init__(self, tier: str, code: str, message: str):
        super().__init__(message)
        self.tier = tier
        self.code = code


def _l0_envelope(payload) -> tuple[SolverSpec, dict, str]:
    """Tier L0: the request envelope is structurally a request."""
    if not isinstance(payload, dict):
        raise RequestError("L0", "not_object", "request body must be a JSON object")
    schema = payload.get("schema")
    if schema != SERVE_SCHEMA_VERSION:
        raise RequestError(
            "L0", "schema_version",
            f"unsupported request schema {schema!r} (this server speaks "
            f"{SERVE_SCHEMA_VERSION})",
        )
    for key in ("solver", "system"):
        if key not in payload:
            raise RequestError("L0", "missing_field", f"request lacks {key!r}")
        if not isinstance(payload[key], dict):
            raise RequestError("L0", "bad_field", f"{key!r} must be an object")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise RequestError("L0", "bad_field", "'tenant' must be a non-empty string")
    try:
        spec = SolverSpec.from_dict(payload["solver"])
    except SpecError as exc:
        raise RequestError("L0", "bad_solver", f"invalid solver spec: {exc}") from exc
    return spec, payload["system"], tenant


def _l1_shapes(system_payload: dict) -> tuple:
    """Tier L1: arrays parse to the right shapes and dtypes.  The only
    place they are parsed: L2, L3 and the :class:`AtomSystem` get what
    this returns.  An ``ndarray`` (from a frame) is never converted."""
    x = system_payload.get("x")
    try:
        if isinstance(x, np.ndarray) and x.dtype != np.float64:
            raise ValueError(f"dtype {x.dtype.str}, the wire carries <f8")
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise RequestError("L1", "bad_positions",
                           f"positions are not numeric: {exc}") from exc
    if x.ndim != 2 or x.shape[1] != 3:
        raise RequestError("L1", "bad_positions",
                           f"positions must be (n, 3), got shape {x.shape}")
    box = system_payload.get("box")
    if not isinstance(box, dict):
        raise RequestError("L1", "bad_box", "'box' must be an object with lo/hi")
    try:
        lo = np.asarray(box.get("lo"), dtype=np.float64).reshape(3)
        hi = np.asarray(box.get("hi"), dtype=np.float64).reshape(3)
        periodic = tuple(bool(p) for p in box.get("periodic", (True, True, True)))
    except (TypeError, ValueError) as exc:
        raise RequestError("L1", "bad_box",
                           f"box lo/hi must be 3-vectors: {exc}") from exc
    if len(periodic) != 3:
        raise RequestError("L1", "bad_box", "box periodic must have 3 flags")
    types = system_payload.get("types")
    if types is not None:
        try:
            types = np.asarray(types)
        except (TypeError, ValueError) as exc:
            raise RequestError("L1", "bad_types", f"type indices: {exc}") from exc
        if not np.issubdtype(types.dtype, np.integer):
            raise RequestError("L1", "bad_types",
                               f"type indices must be integers, got dtype {types.dtype}")
        if types.shape != (x.shape[0],):
            raise RequestError("L1", "bad_types",
                               f"types must be ({x.shape[0]},), got {types.shape}")
    species = system_payload.get("species", ("Si",))
    if (not isinstance(species, (list, tuple)) or not species
            or not all(isinstance(s, str) for s in species)):
        raise RequestError("L1", "bad_species",
                           "species must be a non-empty list of symbols")
    return x, types, tuple(species), lo, hi, periodic


def _l2_sanity(x, types, nspecies: int, lo, hi, max_atoms: int):
    """Tier L2: the numbers describe a physically sane system."""
    n = x.shape[0]
    if n == 0:
        raise RequestError("L2", "empty", "system has no atoms")
    if n > max_atoms:
        raise RequestError("L2", "too_large",
                           f"system has {n} atoms; this server caps at {max_atoms}")
    if not np.all(np.isfinite(x)):
        raise RequestError("L2", "nonfinite", "positions contain NaN/Inf")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise RequestError("L2", "nonfinite", "box bounds contain NaN/Inf")
    if np.any(hi <= lo):
        raise RequestError("L2", "bad_box_extent",
                           f"box must have positive extent, got lo={lo} hi={hi}")
    # on the integers as sent: AtomSystem's int32 cast would wrap 2**32 to 0
    if types is not None and (types.min() < 0 or types.max() >= nspecies):
        raise RequestError("L2", "type_range",
                           f"type indices must lie in [0, {nspecies})")


# memoized (spec → cutoff, species): tier L3 runs per request, parameter
# table construction should not.  SolverSpec is frozen/hashable, so
# lru_cache keys on it directly.
@lru_cache(maxsize=256)
def _spec_limits(spec: SolverSpec) -> tuple:
    params = spec.build_params()
    return float(spec.cutoff(params)), getattr(params, "species", None)


def _l3_feasibility(spec: SolverSpec, system, skin: float):
    """Tier L3: the spec can evaluate this system — its parameter set is
    for these species, and its interaction range fits this box."""
    cutoff, species = _spec_limits(spec)
    if species is not None and system.species != species:
        raise RequestError("L3", "species_mismatch", f"params_set {spec.params_set!r} "
                           f"is for species {species}, the system names {system.species}")
    try:
        system.box.check_cutoff(cutoff + skin)
    except ValueError as exc:
        raise RequestError("L3", "cutoff_box", str(exc)) from exc


def validate_request(payload, *, max_atoms: int = DEFAULT_MAX_ATOMS,
                     skin: float = DEFAULT_SKIN):
    """Run a decoded request through all four tiers.

    Returns ``(spec, system, tenant)`` on success; raises
    :class:`RequestError` at the first failing tier.
    """
    spec, sys_payload, tenant = _l0_envelope(payload)
    x, types, species, lo, hi, periodic = _l1_shapes(sys_payload)
    _l2_sanity(x, types, len(species), lo, hi, max_atoms)
    try:
        system = AtomSystem(box=Box(lo, hi, periodic), x=x, type=types, species=species)
    except ValueError as exc:
        # AtomSystem's own invariants are stricter in corner cases
        # (e.g. species/mass table mismatch) — surface them as L2
        raise RequestError("L2", "bad_system", str(exc)) from exc
    _l3_feasibility(spec, system, skin)
    return spec, system, tenant

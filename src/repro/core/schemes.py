"""Execution modes and scheme selection (paper Sec. V-E and footnotes 3-5).

The paper evaluates four codes — Ref, Opt-D, Opt-S, Opt-M — and picks
the vectorization scheme per (ISA, precision):

- footnote 3: NEON has no double-precision vectors, so neon/double is
  the optimized *scalar* code (and neon has no mixed mode);
- footnote 4: SSE4.2 double (width 2) uses the scalar back-end, since
  "with a vector length of two, vectorization does not yield speedups";
- footnote 5: AVX/AVX2 double and SSE4.2 single (width 4) use scheme
  (1a); all longer vector lengths use the fused scheme (1b);
- footnote 6: CUDA uses the scalar-per-thread model, i.e. scheme (1c),
  with the vector-wide conditional implemented as a warp vote.
"""

from __future__ import annotations

from repro.core.tersoff.optimized import TersoffOptimized
from repro.core.tersoff.parameters import TersoffParams
from repro.core.tersoff.vectorized import TersoffVectorized
from repro.md.potential import Potential
from repro.runtime.spec import MODES  # noqa: F401 - re-exported: validation reads this tuple
from repro.vector.isa import ISA, get_isa
from repro.vector.precision import Precision


def effective_width(isa: ISA, precision: Precision) -> int:
    """Vector width actually used, after the footnote 3/4 fallbacks."""
    w = isa.width(precision.uses_single_lanes)
    if w <= 2 and not isa.has_warp_vote:
        return 1  # scalar back-end
    return w


def select_scheme(isa: ISA | str, precision: Precision | str) -> str:
    """The paper's scheme policy for one (ISA, precision) pair."""
    isa = get_isa(isa) if isinstance(isa, str) else isa
    precision = Precision.parse(precision)
    if isa.has_warp_vote:
        return "1c"
    w = effective_width(isa, precision)
    if w <= 4:
        return "1a"
    return "1b"


def supports_mode(isa: ISA | str, mode: str) -> bool:
    """Whether the ISA supports the execution mode (footnote 3)."""
    isa = get_isa(isa) if isinstance(isa, str) else isa
    if mode == "Ref":
        return True
    precision = mode_precision(mode)
    if precision in (Precision.DOUBLE, Precision.MIXED) and not isa.has_double_vector:
        # NEON: Opt-D exists but is scalar; mixed was not implemented
        return precision is Precision.DOUBLE
    return True


def mode_precision(mode: str) -> Precision:
    """Precision of an Opt-* mode."""
    try:
        return {"Opt-D": Precision.DOUBLE, "Opt-S": Precision.SINGLE, "Opt-M": Precision.MIXED}[mode]
    except KeyError:
        raise ValueError(f"mode {mode!r} has no precision (expected Opt-D/S/M)") from None


def make_solver(
    params: TersoffParams,
    mode: str,
    *,
    isa: ISA | str = "avx2",
    use_lane_simulator: bool = False,
    cache: bool = True,
    backend: str | None = None,
    **vector_options,
) -> Potential:
    """Construct the potential implementing one of the paper's modes.

    Parameters
    ----------
    mode:
        ``"Ref"`` (the LAMMPS-shipped Algorithm 2) or ``"Opt-D"`` /
        ``"Opt-S"`` / ``"Opt-M"``.
    use_lane_simulator:
        For Opt modes: use the lane-faithful
        :class:`~repro.core.tersoff.vectorized.TersoffVectorized`
        (instruction-counting, slower) instead of the wide
        :class:`~repro.core.tersoff.production.TersoffProduction`
        (fast, for real simulations).
    cache:
        Step-persistent interaction cache of the production path
        (default on; bit-for-bit identical either way).  Ignored for
        ``"Ref"`` and the lane simulator.
    backend:
        Compute backend for the production path (see
        :mod:`repro.backends`); ``None`` uses the process default.
        Only the production path has pluggable backends — passing a
        backend with ``mode="Ref"`` or the lane simulator is an error.
    vector_options:
        Forwarded to :class:`TersoffVectorized` (scheme, fast_forward,
        filter_neighbors, kmax).
    """
    from repro.runtime.session import build_potential
    from repro.runtime.spec import SolverSpec

    if mode == "Ref":
        if backend is not None:
            raise ValueError("backend selection only applies to Opt-* production modes")
        return build_potential(SolverSpec(potential="tersoff", mode="Ref"), params=params)
    precision = mode_precision(mode)  # raises on unknown Opt-* modes
    if use_lane_simulator:
        if backend is not None:
            raise ValueError("backend selection only applies to Opt-* production modes")
        return TersoffVectorized(params, isa=isa, precision=precision, **vector_options)
    if vector_options:
        raise ValueError("vector options only apply with use_lane_simulator=True")
    # the runtime session layer is the single construction path for the
    # production modes; SpecError is a ValueError, so callers see the
    # same failure contract as before
    spec = SolverSpec(potential="tersoff", mode=mode, cache=cache, backend=backend)
    return build_potential(spec, params=params)


def make_scalar_optimized(params: TersoffParams, *, kmax: int = 8) -> Potential:
    """The Algorithm 3 scalar core (ablation baseline for Sec. IV-A)."""
    return TersoffOptimized(params, kmax=kmax)

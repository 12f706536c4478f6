"""Lane-level computational kernels shared by the vector schemes.

The paper splits each scheme into a *filter* and a *computational
component* (Sec. IV-B); this module is the computational component:
"almost entirely straight-line floating-point intense code, with some
lookups for potential parameters in between".

Numerics: the kernels evaluate the exact same functional forms as
:mod:`repro.core.tersoff.functional` on ``(chunks, W)`` lane batches in
the backend's compute dtype, so every scheme is bit-compatible with the
production solver given identical inputs.

Costing: each kernel *charges* the backend's counter with its
instruction recipe — the per-lane vector-op sequence a real SIMD
implementation of the same math issues (counted from the arithmetic
below).  Masked execution charges the ISA's masking overhead and
records lane occupancy, which is how wasted lanes (Sec. IV-C, Fig. 2)
become visible to the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tersoff.functional import (
    b_order,
    b_order_d,
    f_a,
    f_c,
    f_c_d,
    f_r,
    g_angle,
    g_angle_d,
    zeta_exp,
    zeta_exp_d_over,
)
from repro.vector.backend import VectorBackend

# Instruction recipes: vector ops a SIMD implementation issues for each
# functional block (category -> count).  'exp' covers exp/log/pow calls.
RECIPE_CUTOFF = {"arith": 5, "trig": 1, "blend": 2}  # fC and fC' share the sin/cos pair
RECIPE_CUTOFF_D = {"arith": 3, "trig": 1, "blend": 1}
RECIPE_PAIR_EXP = {"arith": 2, "exp": 1}  # A exp(-lam r) (fR or fA); derivative is 1 mul
RECIPE_ANGLE = {"arith": 7, "divide": 1}
RECIPE_ANGLE_D = {"arith": 4, "divide": 1}
RECIPE_ZETA_EXP = {"arith": 4, "exp": 1}
RECIPE_BOND_ORDER = {"arith": 6, "exp": 2, "blend": 4}  # pow via exp/log + guard blends
RECIPE_BOND_ORDER_D = {"arith": 7, "exp": 2, "divide": 1, "blend": 4}
RECIPE_GEOM_TRIPLET = {"arith": 24, "divide": 2, "sqrt": 1}  # cos, hats, dcos vectors
RECIPE_DZETA_ASSEMBLY = {"arith": 21}  # 3 components x (2 fma + accumulation)
RECIPE_PAIR_FORCE = {"arith": 10, "divide": 1}


def charge(
    bk: VectorBackend,
    recipe: dict[str, int],
    rows: int,
    *,
    mask: np.ndarray | None = None,
    masked: bool = False,
) -> None:
    """Charge one kernel-recipe execution over `rows` vector registers."""
    costs = bk.isa.costs
    cost_of = {
        "arith": costs.arith,
        "divide": costs.divide,
        "sqrt": costs.sqrt,
        "exp": costs.exp,
        "trig": costs.trig,
        "blend": costs.blend,
    }
    active = None if mask is None else int(np.count_nonzero(mask))
    for category, count in recipe.items():
        per_lane_active = None if active is None else active * count
        bk.counter.record(
            category,
            rows * count,
            cost_of[category],
            width=bk.width,
            active_lanes=per_lane_active,
            masked=masked,
        )


@dataclass
class ParamFields:
    """Per-lane parameter values for one kernel batch.

    For single-species systems these are python scalars (the paper's
    benchmark: the parameter loads hoist out of the loop entirely); for
    multi-species they are ``(rows, W)`` arrays obtained with adjacent
    gathers.
    """

    R: object
    D: object
    gamma: object
    c: object
    d: object
    h: object
    lam3: object
    m: object
    n: object = None
    beta: object = None
    lam2: object = None
    B: object = None
    lam1: object = None
    A: object = None
    c1: object = None
    c2: object = None
    c3: object = None
    c4: object = None


_TRIPLET_FIELDS = ("R", "D", "gamma", "c", "d", "h", "lam3", "m")
_PAIR_FIELDS = _TRIPLET_FIELDS + ("n", "beta", "lam2", "B", "lam1", "A", "c1", "c2", "c3", "c4")

#: Fields the wide production path gathers per pair / per triplet row
#: (the 17-field struct-of-arrays block; ``m`` is gathered separately
#: because it stays a float64 selector in every precision mode).
PROD_PAIR_FIELDS = ("R", "D", "A", "lam1", "B", "lam2", "beta", "n", "c1", "c2", "c3", "c4")
PROD_TRIPLET_FIELDS = ("R", "D", "gamma", "c", "d", "h", "lam3")


def gather_flat(
    pblock: dict[str, np.ndarray],
    flat_idx: np.ndarray,
    fields: tuple[str, ...],
) -> dict[str, np.ndarray]:
    """Uncosted struct-of-arrays gather for the wide production path.

    The lane-level schemes pay per-gather costs through
    :func:`gather_params`; the production path gathers whole interaction
    batches at once, and the interaction cache reuses the result across
    steps while the filtered topology is unchanged (same values either
    way, so cached and cold paths agree bit for bit).
    """
    return {f: pblock[f][flat_idx] for f in fields}


def gather_params(
    bk: VectorBackend,
    pblock: dict[str, np.ndarray],
    flat_idx: np.ndarray | int,
    *,
    fields: tuple[str, ...],
    mask: np.ndarray | None = None,
) -> ParamFields:
    """Load parameter fields for each lane.

    ``pblock`` maps field name to the flat ``ntypes**3`` array in the
    compute dtype (plus ``m`` kept as float64 selector).  When
    ``flat_idx`` is a scalar (single-species specialization) the loads
    are free broadcasts; otherwise each field costs one adjacent gather
    (the parameter struct is contiguous per entry, Sec. V-A (4)).
    """
    values: dict[str, object] = {}
    if np.ndim(flat_idx) == 0:
        idx = int(flat_idx)
        for f in fields:
            values[f] = float(pblock[f][idx])
    else:
        for f in fields:
            # fill masked lanes with 1.0 so divisor fields (D, d, n, ...)
            # never produce spurious FP exceptions in discarded lanes
            values[f] = bk.gather(pblock[f], flat_idx, mask=mask, adjacent=True, fill=1.0)
    return ParamFields(**values)


def triplet_kernel(
    bk: VectorBackend,
    pf: ParamFields,
    rij: np.ndarray,
    dij: np.ndarray,
    rik: np.ndarray,
    dik: np.ndarray,
    mask: np.ndarray | None,
    *,
    with_derivatives: bool = True,
    rows: int | None = None,
):
    """One ζ(i,j,k) evaluation over a lane batch.

    Parameters are ``(rows, W)`` arrays (``dij``/``dik`` are
    ``(rows, W, 3)``).  Returns ``zeta_contrib`` and, if requested, the
    derivative vectors ``(dzi, dzj, dzk)``, all in the compute dtype
    with masked-off lanes zeroed.

    This is the Sec. IV-A fused evaluation: derivatives and ζ come out
    of one pass over the shared sub-terms.
    """
    cd = bk.compute_dtype
    rij = rij.astype(cd, copy=False)
    rik = rik.astype(cd, copy=False)
    dij = dij.astype(cd, copy=False)
    dik = dik.astype(cd, copy=False)
    rows = rij.shape[0] if rows is None else rows
    masked = mask is not None

    with np.errstate(divide="ignore", invalid="ignore"):
        inv_rij_rik = 1.0 / (rij * rik)
        cos_t = np.einsum("...i,...i->...", dij, dik) * inv_rij_rik
        cos_t = np.where(mask, cos_t, 0.0) if masked else cos_t
    charge(bk, RECIPE_GEOM_TRIPLET, rows, mask=mask, masked=masked)

    fc = f_c(rik, pf.R, pf.D)
    charge(bk, RECIPE_CUTOFF, rows, mask=mask, masked=masked)
    g = g_angle(cos_t, pf.gamma, pf.c, pf.d, pf.h)
    charge(bk, RECIPE_ANGLE, rows, mask=mask, masked=masked)
    ex = zeta_exp(rij, rik, pf.lam3, pf.m)
    charge(bk, RECIPE_ZETA_EXP, rows, mask=mask, masked=masked)
    zeta_contrib = fc * g * ex
    if masked:
        zeta_contrib = np.where(mask, zeta_contrib, 0.0)
    bk.counter.record("arith", rows * 2, bk.isa.costs.arith, width=bk.width, masked=masked)
    bk.counter.record_kernel_invocation(
        rows, width=bk.width, active_lanes=np.count_nonzero(mask) if masked else None)
    if not with_derivatives:
        return zeta_contrib, None, None, None

    fc_d = f_c_d(rik, pf.R, pf.D)
    charge(bk, RECIPE_CUTOFF_D, rows, mask=mask, masked=masked)
    g_d = g_angle_d(cos_t, pf.gamma, pf.c, pf.d, pf.h)
    charge(bk, RECIPE_ANGLE_D, rows, mask=mask, masked=masked)
    ex_ld = zeta_exp_d_over(rij, rik, pf.lam3, pf.m)

    with np.errstate(divide="ignore", invalid="ignore"):
        inv_rij = 1.0 / rij
        inv_rik = 1.0 / rik
        hat_ij = dij * inv_rij[..., None]
        hat_ik = dik * inv_rik[..., None]
        dcos_dj = hat_ik * inv_rij[..., None] - (cos_t * inv_rij)[..., None] * hat_ij
        dcos_dk = hat_ij * inv_rik[..., None] - (cos_t * inv_rik)[..., None] * hat_ik
        fc_g_ex = zeta_contrib
        fc_gd_ex = fc * g_d * ex
        dzj = (fc_g_ex * ex_ld)[..., None] * hat_ij + fc_gd_ex[..., None] * dcos_dj
        dzk = (fc_d * g * ex - fc_g_ex * ex_ld)[..., None] * hat_ik + fc_gd_ex[..., None] * dcos_dk
        dzi = -(dzj + dzk)
    if masked:
        dzi = np.where(mask[..., None], dzi, 0.0)
        dzj = np.where(mask[..., None], dzj, 0.0)
        dzk = np.where(mask[..., None], dzk, 0.0)
    charge(bk, RECIPE_DZETA_ASSEMBLY, rows, mask=mask, masked=masked)
    return zeta_contrib, dzi.astype(cd, copy=False), dzj.astype(cd, copy=False), dzk.astype(cd, copy=False)


def pair_kernel(
    bk: VectorBackend,
    pf: ParamFields,
    rij: np.ndarray,
    zeta: np.ndarray,
    mask: np.ndarray | None,
    *,
    rows: int | None = None,
):
    """The V(i,j,ζ) evaluation over a lane batch.

    Returns ``(e_pair, fpair, prefactor)`` in the compute dtype:
    the 1/2-convention pair energy, the force-over-distance on the
    pair at fixed b, and dV/dζ.
    """
    cd = bk.compute_dtype
    rij = rij.astype(cd, copy=False)
    zeta = zeta.astype(cd, copy=False)
    rows = rij.shape[0] if rows is None else rows
    masked = mask is not None

    safe_rij = np.where(mask, rij, 1.0).astype(cd, copy=False) if masked else rij
    fc = f_c(safe_rij, pf.R, pf.D)
    fc_d = f_c_d(safe_rij, pf.R, pf.D)
    charge(bk, RECIPE_CUTOFF, rows, mask=mask, masked=masked)
    charge(bk, RECIPE_CUTOFF_D, rows, mask=mask, masked=masked)
    fr = f_r(safe_rij, pf.A, pf.lam1)
    fa = f_a(safe_rij, pf.B, pf.lam2)
    charge(bk, RECIPE_PAIR_EXP, rows, mask=mask, masked=masked)
    charge(bk, RECIPE_PAIR_EXP, rows, mask=mask, masked=masked)
    fr_d = -pf.lam1 * fr
    fa_d = -pf.lam2 * fa
    bij = b_order(zeta, pf.beta, pf.n, pf.c1, pf.c2, pf.c3, pf.c4)
    charge(bk, RECIPE_BOND_ORDER, rows, mask=mask, masked=masked)
    bij_d = b_order_d(zeta, pf.beta, pf.n, pf.c1, pf.c2, pf.c3, pf.c4)
    charge(bk, RECIPE_BOND_ORDER_D, rows, mask=mask, masked=masked)

    with np.errstate(divide="ignore", invalid="ignore"):
        e_pair = 0.5 * fc * (fr + bij * fa)
        dE_dr = 0.5 * (fc_d * (fr + bij * fa) + fc * (fr_d + bij * fa_d))
        fpair = -dE_dr / safe_rij
        prefactor = 0.5 * fc * fa * bij_d
    charge(bk, RECIPE_PAIR_FORCE, rows, mask=mask, masked=masked)
    bk.counter.record_kernel_invocation(
        rows, width=bk.width, active_lanes=np.count_nonzero(mask) if masked else None)
    if masked:
        e_pair = np.where(mask, e_pair, 0.0)
        fpair = np.where(mask, fpair, 0.0)
        prefactor = np.where(mask, prefactor, 0.0)
    return e_pair.astype(cd, copy=False), fpair.astype(cd, copy=False), prefactor.astype(cd, copy=False)

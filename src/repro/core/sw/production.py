"""Batched Stillinger-Weber on the potential-agnostic staged pipeline.

The point of this module is the paper's generality claim: the *same*
scalar filter, triplet expansion, step-persistent list cache and
segmented-sum accumulation feed a completely different multi-body
functional form.  Only the inner arithmetic and the cutoff convention
are SW-specific; the packing, caching and accumulation strategy come
from :mod:`repro.core.pipeline`.

SW's filter is *strict* (``r < cut``): its tail function
``exp(sigma/(r - cut))`` diverges at exactly ``r == cut``, so an
inclusive filter would poison the batch.  The k-candidate set is the
filtered pair set itself (single species, single cutoff).

:class:`SWKernel` is the ``numpy`` backend's SW kernel: the oracle, and
the fallback without a C toolchain.  Where the extension loads,
:class:`StillingerWeberProduction` runs
:class:`~repro.backends.compiled.CompiledSWKernel` by default.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import hot_path
from repro.core.pipeline import (
    MultiBodyKernel,
    PairData,
    PipelinePotential,
    Staging,
    Workspace,
    build_triplets,
    filter_list,
    segsum3,
)
from repro.core.sw.functional import phi2, phi3
from repro.core.sw.parameters import SWParams
from repro.md.potential import ForceResult
from repro.vector.precision import Precision


def _unordered_triplets(pairs: PairData) -> tuple[np.ndarray, np.ndarray]:
    """Each unordered (j, k) of a center once: the ordered expansion,
    rows with k after j."""
    tri = build_triplets(pairs, pairs)
    keep = tri.tri_k > tri.tri_pair
    return tri.tri_pair[keep], tri.tri_k[keep]


class SWKernel(MultiBodyKernel):
    """The Stillinger-Weber filter and computational component."""

    def __init__(self, params: SWParams, precision: Precision):
        self.params = params
        self.precision = precision
        self._ws = Workspace()

    @hot_path(reason="filter and computational part of every SW force call")
    def evaluate(self, st: Staging, n: int) -> ForceResult:
        p = self.params
        cd = self.precision.compute_dtype
        # the filter: strict, the SW tail diverges at r == cut
        (pairs,) = filter_list(st.pairs, float(p.cut), strict=True, workspace=self._ws)
        P = pairs.n_pairs
        tp, tk = _unordered_triplets(pairs)

        d_ij = pairs.d.astype(cd)
        r_ij = pairs.r.astype(cd)

        # ---- two-body -------------------------------------------------------
        e2, de2 = phi2(r_ij, p)
        # dense filtered pairs: r_ij > 0 for every retained row
        fpair = (-0.5 * de2 / r_ij).astype(np.float64)
        energy = 0.5 * float(np.sum(e2.astype(np.float64)))
        fvec = fpair[:, None] * pairs.d
        # force accumulator must start zeroed; Workspace.buf hands back
        # uninitialized capacity, so a fresh allocation is the honest cost
        forces = np.zeros((n, 3), dtype=np.float64)  # repro-lint: disable=KA003
        forces -= segsum3(pairs.i_idx, fvec, n, np.float64)
        forces += segsum3(pairs.j_idx, fvec, n, np.float64)
        virial = float(np.sum(fpair * pairs.r * pairs.r))
        # full virial tensor W_ab = sum d_a F_b (pair part: F on j is fvec)
        stress = np.einsum("ia,ib->ab", pairs.d, fvec)

        # ---- three-body: the triplets hold each unordered pair once --------
        T = tp.shape[0]
        if T:
            rij_t = r_ij[tp]
            rik_t = r_ij[tk]
            dij_t = d_ij[tp]
            dik_t = d_ij[tk]
            cos_t = np.einsum("ij,ij->i", dij_t, dik_t) / (rij_t * rik_t)
            e3, de_drij, de_drik, de_dcos = phi3(rij_t, rik_t, cos_t, p)
            energy += float(np.sum(e3.astype(np.float64)))
            hat_ij = dij_t / rij_t[:, None]
            hat_ik = dik_t / rik_t[:, None]
            dcos_dj = hat_ik / rij_t[:, None] - (cos_t / rij_t)[:, None] * hat_ij
            dcos_dk = hat_ij / rik_t[:, None] - (cos_t / rik_t)[:, None] * hat_ik
            fj = -(de_drij[:, None] * hat_ij + de_dcos[:, None] * dcos_dj).astype(np.float64)
            fk = -(de_drik[:, None] * hat_ik + de_dcos[:, None] * dcos_dk).astype(np.float64)
            forces += segsum3(pairs.j_idx[tp], fj, n, np.float64)
            forces += segsum3(pairs.j_idx[tk], fk, n, np.float64)
            forces -= segsum3(pairs.i_idx[tp], fj + fk, n, np.float64)
            virial += float(np.sum(np.einsum("ij,ij->i", pairs.d[tp], fj)
                                   + np.einsum("ij,ij->i", pairs.d[tk], fk)))
            # triplet virial tensor: F on j is +fj, on k is +fk
            stress += np.einsum("ia,ib->ab", pairs.d[tp], fj)
            stress += np.einsum("ia,ib->ab", pairs.d[tk], fk)

        # per-atom energies: half of each ordered pair to i, each triple
        # to its center atom
        per_atom = np.bincount(pairs.i_idx, weights=0.5 * e2.astype(np.float64), minlength=n)
        if T:
            per_atom += np.bincount(pairs.i_idx[tp], weights=e3.astype(np.float64), minlength=n)
        stats = {"pairs_in_cutoff": P, "triples": int(T),
                 "list_entries": pairs.n_list_entries,
                 "filter_efficiency": pairs.filter_efficiency,
                 "virial_tensor": 0.5 * (stress + stress.T),
                 "per_atom_energy": per_atom}
        return ForceResult(energy=energy, forces=forces, virial=virial, stats=stats)


class StillingerWeberProduction(PipelinePotential):
    """Wide batched SW with double/single/mixed precision: the computational
    batches run in the compute dtype, accumulation in double.  See
    :class:`~repro.core.pipeline.PipelinePotential` for the parameters."""

    family = "sw"

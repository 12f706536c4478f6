"""Cross-potential ``ForceResult.stats`` conformance.

Every potential on the staged pipeline (``PipelinePotential``: Tersoff
and SW) must provide the :data:`repro.md.potential.STATS_CONTRACT` keys
with self-consistent values: the virial tensor's trace is the scalar
virial, the per-atom energies sum to the total, and the cache block
reflects the ``cache=`` constructor flag.  The vectorized LJ is a lane
simulator, exempt from the timing and cache blocks, but its virial
tensor and per-atom energies must be self-consistent too; it keeps no
cache, so both ``cache`` flags build the same LJ.
"""

import numpy as np
import pytest

from conftest import build_list
from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.pair_lj_vectorized import LennardJonesVectorized
from repro.md.potential import STATS_CONTRACT


def _make(name, cache):
    system = perturbed(diamond_lattice(3, 3, 3), 0.08, seed=7)
    if name == "tersoff":
        params = tersoff_si()
        return TersoffProduction(params, cache=cache), system, build_list(system, params.max_cutoff, skin=0.6)
    if name == "sw":
        params = sw_silicon()
        return StillingerWeberProduction(params, cache=cache), system, build_list(system, params.cut, skin=0.6)
    return LennardJonesVectorized(0.07, 2.0951, 4.2), system, build_list(system, 4.2, skin=0.8)


PIPELINE = pytest.mark.parametrize("name", ["tersoff", "sw"])
CACHE = pytest.mark.parametrize("cache", [True, False])


class TestStatsContract:
    @PIPELINE
    @CACHE
    def test_contract_keys_present(self, name, cache):
        pot, system, nl = _make(name, cache)
        res = pot.compute(system, nl)
        for key in STATS_CONTRACT:
            assert key in res.stats, f"{name}: missing stats[{key!r}]"

    @pytest.mark.parametrize("name", ["tersoff", "sw", "lj"])
    @CACHE
    def test_values_self_consistent(self, name, cache):
        pot, system, nl = _make(name, cache)
        res = pot.compute(system, nl)
        assert int(res.stats["pairs_in_cutoff"]) > 0

        vt = res.stats["virial_tensor"]
        assert vt.shape == (3, 3) and vt.dtype == np.float64
        assert np.array_equal(vt, vt.T)
        assert np.trace(vt) == pytest.approx(res.virial, rel=1e-10, abs=1e-10)

        pae = res.stats["per_atom_energy"]
        assert pae.shape == (system.n,) and pae.dtype == np.float64
        assert float(pae.sum()) == pytest.approx(res.energy, rel=1e-12, abs=1e-12)

        if name != "lj":
            timing = res.stats["timing"]
            assert timing["staging_s"] >= 0.0 and timing["kernel_s"] >= 0.0

    @PIPELINE
    @CACHE
    def test_cache_block(self, name, cache):
        pot, system, nl = _make(name, cache)
        res = pot.compute(system, nl)
        block = res.stats["cache"]
        if cache:
            assert block["enabled"] is True
            assert block["list_version"] == nl.version
            assert block["hits"] + block["misses"] + block["invalidations"] == 1
            res2 = pot.compute(system, nl)
            assert res2.stats["cache"]["hits"] >= 1
        else:
            assert block == {"enabled": False}
            assert pot.cache_stats is None

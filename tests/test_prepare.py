"""The filter component: pair extraction and triplet expansion."""

import numpy as np
import pytest

from conftest import build_list, make_cluster
from repro.core.tersoff.parameters import tersoff_si
from repro.core.pipeline import build_pairs, build_triplets, group_by_i


class TestBuildPairs:
    def test_pair_cutoff_filters_skin(self, si_params, si_lattice_222, si_neigh_222):
        pairs = build_pairs(si_lattice_222, si_neigh_222, si_params.flat(), cutoff="pair")
        assert pairs.n_pairs < pairs.n_list_entries
        assert np.all(pairs.r <= si_params.max_cutoff + 1e-12)
        assert 0.0 < pairs.filter_efficiency < 1.0

    def test_none_keeps_everything(self, si_params, si_lattice_222, si_neigh_222):
        pairs = build_pairs(si_lattice_222, si_neigh_222, si_params.flat(), cutoff="none")
        assert pairs.n_pairs == si_neigh_222.n_pairs
        assert pairs.filter_efficiency == 1.0

    def test_max_at_least_pair(self, sic_params, sic_lattice, sic_neigh):
        flat = sic_params.flat()
        by_pair = build_pairs(sic_lattice, sic_neigh, flat, cutoff="pair")
        by_max = build_pairs(sic_lattice, sic_neigh, flat, cutoff="max")
        assert by_max.n_pairs >= by_pair.n_pairs

    def test_max_cutoff_safe_for_multielement(self, sic_params, sic_lattice, sic_neigh):
        """Sec. IV-D: only the max cutoff may pre-filter, else pairs with
        a larger type-pair cutoff would be dropped.  Verify that every
        pair-filtered entry survives the max filter."""
        flat = sic_params.flat()
        by_pair = build_pairs(sic_lattice, sic_neigh, flat, cutoff="pair")
        by_max = build_pairs(sic_lattice, sic_neigh, flat, cutoff="max")
        keys_pair = set(zip(by_pair.i_idx.tolist(), by_pair.j_idx.tolist()))
        keys_max = set(zip(by_max.i_idx.tolist(), by_max.j_idx.tolist()))
        assert keys_pair <= keys_max

    def test_unknown_mode_rejected(self, si_params, si_lattice_222, si_neigh_222):
        with pytest.raises(ValueError, match="unknown cutoff"):
            build_pairs(si_lattice_222, si_neigh_222, si_params.flat(), cutoff="bogus")

    def test_sorted_by_i(self, si_params, si_lattice_222, si_neigh_222):
        pairs = build_pairs(si_lattice_222, si_neigh_222, si_params.flat())
        assert np.all(np.diff(pairs.i_idx) >= 0)

    def test_displacements_match_distances(self, si_params, si_lattice_222, si_neigh_222):
        pairs = build_pairs(si_lattice_222, si_neigh_222, si_params.flat())
        r = np.sqrt(np.einsum("ij,ij->i", pairs.d, pairs.d))
        assert np.allclose(r, pairs.r)


class TestGroupByI:
    def test_counts_and_starts(self):
        idx = np.array([0, 0, 2, 2, 2, 4])
        starts, counts = group_by_i(idx, 5)
        assert counts.tolist() == [2, 0, 3, 0, 1]
        assert starts.tolist() == [0, 2, 2, 5, 5]


class TestBuildTriplets:
    def test_lattice_triplet_count(self, si_params, si_lattice_222, si_neigh_222):
        """Si: 4 in-cutoff pairs per atom -> 4 x 3 = 12 triplets per atom."""
        flat = si_params.flat()
        pairs = build_pairs(si_lattice_222, si_neigh_222, flat, cutoff="pair")
        kcand = build_pairs(si_lattice_222, si_neigh_222, flat, cutoff="max")
        tri = build_triplets(pairs, kcand)
        assert tri.n_triplets == 12 * si_lattice_222.n

    def test_k_never_equals_j(self, si_params, si_lattice_222, si_neigh_222):
        flat = si_params.flat()
        pairs = build_pairs(si_lattice_222, si_neigh_222, flat, cutoff="pair")
        kcand = build_pairs(si_lattice_222, si_neigh_222, flat, cutoff="max")
        tri = build_triplets(pairs, kcand)
        assert np.all(kcand.j_idx[tri.tri_k] != pairs.j_idx[tri.tri_pair])

    def test_same_center_atom(self, si_params, si_lattice_222, si_neigh_222):
        flat = si_params.flat()
        pairs = build_pairs(si_lattice_222, si_neigh_222, flat, cutoff="pair")
        kcand = build_pairs(si_lattice_222, si_neigh_222, flat, cutoff="max")
        tri = build_triplets(pairs, kcand)
        assert np.all(pairs.i_idx[tri.tri_pair] == kcand.i_idx[tri.tri_k])

    def test_exhaustive_against_bruteforce(self):
        """Triplet set must equal the nested-loop definition."""
        params = tersoff_si()
        s = make_cluster(9, seed=50)
        nl = build_list(s, params.max_cutoff, brute=True)
        flat = params.flat()
        pairs = build_pairs(s, nl, flat, cutoff="pair")
        kcand = build_pairs(s, nl, flat, cutoff="max")
        tri = build_triplets(pairs, kcand)
        got = set(zip(pairs.i_idx[tri.tri_pair].tolist(),
                      pairs.j_idx[tri.tri_pair].tolist(),
                      kcand.j_idx[tri.tri_k].tolist()))
        expected = set()
        pk = set(zip(kcand.i_idx.tolist(), kcand.j_idx.tolist()))
        for i, j in zip(pairs.i_idx.tolist(), pairs.j_idx.tolist()):
            for i2, k in pk:
                if i2 == i and k != j:
                    expected.add((i, j, k))
        assert got == expected

"""Tersoff parameter tables: bundled sets, mixing rules, file format,
flat struct-of-arrays layout."""

import math

import pytest

from repro.core.tersoff.parameters import (
    ELEMENT_SETS,
    TersoffEntry,
    TersoffParams,
    bundled_file,
    format_lammps_tersoff,
    load_tersoff_file,
    parse_lammps_tersoff,
    tersoff_carbon,
    tersoff_si,
    tersoff_si_1988,
    tersoff_sic,
    tersoff_sige,
)


class TestEntry:
    def test_derived_quantities(self):
        e = ELEMENT_SETS["Si"]
        assert e.cut == pytest.approx(3.0)
        assert e.cutsq == pytest.approx(9.0)
        # LAMMPS setup(): c1..c4 from powern
        assert e.c1 == pytest.approx((2.0 * e.n * 1e-16) ** (-1.0 / e.n))
        assert e.c4 == pytest.approx(1.0 / e.c1)
        assert e.c2 * e.c3 == pytest.approx(1.0)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m must be"):
            TersoffEntry(m=2, gamma=1, lam3=0, c=1, d=1, h=0, n=1, beta=1,
                         lam2=1, B=1, R=3, D=0.2, lam1=1, A=1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            TersoffEntry(m=3, gamma=1, lam3=0, c=1, d=1, h=0, n=0, beta=1,
                         lam2=1, B=1, R=3, D=0.2, lam1=1, A=1)

    def test_si_c_reference_values(self):
        """The LAMMPS Si.tersoff (PRB 38, 9902) parameter line."""
        e = ELEMENT_SETS["Si"]
        assert e.A == pytest.approx(1830.8)
        assert e.B == pytest.approx(471.18)
        assert e.lam1 == pytest.approx(2.4799)
        assert e.beta == pytest.approx(1.1e-6)
        assert e.h == pytest.approx(-0.59825)

    def test_si_b_reference_values(self):
        """The paper's reference [7] (PRB 37, 6991) parameter line."""
        e = ELEMENT_SETS["Si(B)"]
        assert e.A == pytest.approx(3264.7)
        assert e.n == pytest.approx(22.956)
        assert e.lam3 == pytest.approx(1.3258)


class TestMixing:
    def test_diagonal_is_pure_element(self):
        p = tersoff_sic()
        si = p.table[("Si", "Si", "Si")]
        assert si.A == pytest.approx(ELEMENT_SETS["Si"].A)
        cc = p.table[("C", "C", "C")]
        assert cc.A == pytest.approx(ELEMENT_SETS["C"].A)

    def test_pair_mixing_rules(self):
        p = tersoff_sic()
        e = p.table[("Si", "C", "C")]
        si, c = ELEMENT_SETS["Si"], ELEMENT_SETS["C"]
        assert e.A == pytest.approx(math.sqrt(si.A * c.A))
        assert e.B == pytest.approx(0.9776 * math.sqrt(si.B * c.B))
        assert e.lam1 == pytest.approx(0.5 * (si.lam1 + c.lam1))
        # angular terms come from the center element
        assert e.c == pytest.approx(si.c)
        assert e.h == pytest.approx(si.h)

    def test_cutoff_mixes_center_and_k(self):
        p = tersoff_sic()
        si, c = ELEMENT_SETS["Si"], ELEMENT_SETS["C"]
        e_sik_c = p.table[("Si", "Si", "C")]
        assert e_sik_c.R == pytest.approx(math.sqrt(si.R * c.R))
        e_sij_c_k_si = p.table[("Si", "C", "Si")]
        assert e_sij_c_k_si.R == pytest.approx(si.R)

    def test_sige_chi(self):
        p = tersoff_sige()
        si, ge = ELEMENT_SETS["Si"], ELEMENT_SETS["Ge"]
        e = p.table[("Si", "Ge", "Ge")]
        assert e.B == pytest.approx(1.00061 * math.sqrt(si.B * ge.B))

    def test_missing_triple_rejected(self):
        table = {("Si", "Si", "Si"): ELEMENT_SETS["Si"]}
        with pytest.raises(ValueError, match="missing"):
            TersoffParams(("Si", "C"), table)

    def test_unknown_element_rejected(self):
        with pytest.raises(KeyError):
            TersoffParams.from_elements(("Xx",))


class TestFlat:
    def test_flat_index_layout(self):
        p = tersoff_sic()
        flat = p.flat()
        assert flat.ntypes == 2
        for ti in range(2):
            for tj in range(2):
                for tk in range(2):
                    idx = flat.triple_index(ti, tj, tk)
                    entry = p.entry(ti, tj, tk)
                    assert flat.A[idx] == pytest.approx(entry.A)
                    assert flat.cut[idx] == pytest.approx(entry.cut)

    def test_pair_index_is_jj(self):
        p = tersoff_sic()
        flat = p.flat()
        assert flat.pair_index(0, 1) == flat.triple_index(0, 1, 1)

    def test_flat_cached(self):
        p = tersoff_si()
        assert p.flat() is p.flat()

    def test_max_cutoff(self):
        assert tersoff_si().max_cutoff == pytest.approx(3.0)
        # SiC: max over all entries (pure Si 3.0 is the largest)
        assert tersoff_sic().max_cutoff == pytest.approx(3.0)
        assert tersoff_carbon().max_cutoff == pytest.approx(2.1)


class TestFileFormat:
    def test_roundtrip(self):
        p = tersoff_sic()
        text = format_lammps_tersoff(p)
        q = parse_lammps_tersoff(text, ("Si", "C"))
        for key, e in p.table.items():
            f = q.table[key]
            for name in ("m", "gamma", "lam3", "c", "d", "h", "n", "beta",
                         "lam2", "B", "R", "D", "lam1", "A"):
                assert getattr(f, name) == pytest.approx(getattr(e, name), rel=1e-5), (key, name)

    def test_comments_and_continuation(self):
        text = """
        # a comment line
        Si Si Si 3.0 1.0 0.0 100390.0 16.217 -0.59825
           0.78734 1.1e-06 1.73222 471.18 2.85 0.15 2.4799 1830.8  # trailing
        """
        p = parse_lammps_tersoff(text, ("Si",))
        assert p.table[("Si", "Si", "Si")].A == pytest.approx(1830.8)

    def test_rejects_truncated(self):
        with pytest.raises(ValueError, match="multiple of 17"):
            parse_lammps_tersoff("Si Si Si 3.0 1.0", ("Si",))

    def test_nested_lookup_matches_flat(self):
        p = tersoff_si_1988()
        assert p.entry(0, 0, 0).A == pytest.approx(p.flat().A[0])


class TestBundledFiles:
    def test_all_bundled_files_load(self):
        for name, species in (
            ("Si.tersoff", ("Si",)),
            ("Si_1988.tersoff", ("Si",)),
            ("SiC.tersoff", ("Si", "C")),
            ("SiGe.tersoff", ("Si", "Ge")),
        ):
            params = load_tersoff_file(bundled_file(name), species)
            assert params.max_cutoff > 2.0

    def test_bundled_si_matches_builtin(self):
        loaded = load_tersoff_file(bundled_file("Si.tersoff"), ("Si",))
        builtin = tersoff_si()
        assert loaded.entry(0, 0, 0).A == pytest.approx(builtin.entry(0, 0, 0).A, rel=1e-5)
        assert loaded.entry(0, 0, 0).beta == pytest.approx(builtin.entry(0, 0, 0).beta, rel=1e-5)

    def test_missing_bundled_file(self):
        with pytest.raises(FileNotFoundError, match="available"):
            bundled_file("Unobtainium.tersoff")

    def test_bundled_parameters_drive_solver(self):
        """Loaded-from-disk parameters produce the same physics."""
        from conftest import build_list
        from repro.core.tersoff.production import TersoffProduction
        from repro.md.lattice import diamond_lattice

        loaded = load_tersoff_file(bundled_file("Si.tersoff"), ("Si",))
        s = diamond_lattice(2, 2, 2)
        nl = build_list(s, loaded.max_cutoff)
        e_loaded = TersoffProduction(loaded).compute(s, nl).energy
        e_builtin = TersoffProduction(tersoff_si()).compute(s, nl).energy
        assert e_loaded == pytest.approx(e_builtin, rel=1e-5)

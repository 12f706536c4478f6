"""Kernel-contract static analyzer (``repro lint``) and its runtime companion.

Covers, per ISSUE: one positive + one negative fixture per rule,
suppression mechanics, the repo-wide self-lint gate, the
CLI exit-code contract, bitwise equivalence of the scatter-helper
migration in all three precision modes, and the ``--sanitize`` runtime
guards.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import HOT_PATH_REGISTRY, hot_path
from repro.analysis.engine import LintConfig, run_lint
from repro.analysis.sanitize import (
    SanitizedPotential,
    SanitizeError,
    check_force_result,
    sanitize,
)
from repro.md.potential import ForceResult
from repro.vector.backend import scatter_add, scatter_add_rows
from repro.vector.precision import Precision

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

# everything in the fixture dir counts as a kernel module
KERNEL_EVERYWHERE = LintConfig(kernel_modules=("",), scatter_exempt_modules=("exempt_",))


def lint_source(tmp_path, source, *, name="mod.py", config=KERNEL_EVERYWHERE):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return run_lint([path], config=config, root=tmp_path)


def rules_of(result):
    return sorted(f.rule for f in result.findings)


# ---------------------------------------------------------------- KA001


class TestKA001DtypeDiscipline:
    def test_flags_dtypeless_constructors(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def kernel(n):
                a = np.zeros((n, 3))
                b = np.empty(n)
                c = np.arange(n)
                return a, b, c
            """,
        )
        assert rules_of(res) == ["KA001", "KA001", "KA001"]
        assert {f.line for f in res.findings} == {5, 6, 7}

    def test_explicit_dtype_is_clean(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def kernel(n, cd):
                a = np.zeros((n, 3), dtype=np.float64)
                b = np.empty(n, dtype=cd)
                c = np.full((n,), 1.0, np.float32)  # positional dtype
                d = np.arange(n, dtype=np.int64)
                return a, b, c, d
            """,
        )
        assert res.findings == []

    def test_non_kernel_module_not_checked(self, tmp_path):
        cfg = LintConfig(kernel_modules=("never-matches/",))
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def helper(n):
                return np.zeros(n)
            """,
            config=cfg,
        )
        assert res.findings == []


# ---------------------------------------------------------------- KA002


class TestKA002PrecisionPromotion:
    def test_flags_unsunk_promotion(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def kernel(x, cd):
                y = x.astype(np.float64)
                return y * 2.0
            """,
        )
        assert "KA002" in rules_of(res)

    def test_promotion_feeding_accumulation_is_clean(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def kernel(idx, vals, n, cd):
                w = vals.astype(np.float64)
                return np.bincount(idx, weights=w, minlength=n)
            """,
        )
        assert res.findings == []

    def test_unparameterized_function_not_checked(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def host_side(x):
                return x.astype(np.float64) * 2.0
            """,
        )
        assert res.findings == []


# ---------------------------------------------------------------- KA003


class TestKA003HotPathAllocation:
    def test_flags_allocation_in_hot_path(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path

            @hot_path
            def step(n):
                buf = np.zeros((n, 3), dtype=np.float64)
                return buf
            """,
        )
        assert rules_of(res) == ["KA003"]

    def test_workspace_buffer_is_clean(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path

            @hot_path(reason="per step")
            def step(ws, n):
                buf = ws.buf("forces", (n, 3), np.float64)
                return buf
            """,
        )
        assert res.findings == []

    def test_unmarked_function_may_allocate(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def cold_setup(n):
                return np.empty((n, 3), dtype=np.float64)
            """,
        )
        assert res.findings == []


# ---------------------------------------------------------------- KA004


class TestKA004MaskedMathGuard:
    def test_flags_unguarded_division_and_sqrt(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def kernel(x, rr, cd):
                mask = rr > 0.0
                r = rr.astype(cd)
                f = x / r
                g = np.sqrt(r)
                return np.where(mask, f + g, 0.0)
            """,
        )
        assert rules_of(res) == ["KA004", "KA004"]

    def test_errstate_guard_is_clean(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def kernel(x, rr, cd):
                mask = rr > 0.0
                r = rr.astype(cd)
                with np.errstate(divide="ignore", invalid="ignore"):
                    f = x / r
                    g = np.sqrt(r)
                return np.where(mask, f + g, 0.0)
            """,
        )
        assert res.findings == []

    def test_unmasked_function_not_checked(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def dense(x, r):
                return x / r
            """,
        )
        assert res.findings == []


# ---------------------------------------------------------------- KA005


class TestKA005RawScatter:
    def test_flags_raw_add_at(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def merge(forces, idx, contrib):
                np.add.at(forces, idx, contrib)
            """,
        )
        assert rules_of(res) == ["KA005"]

    def test_exempt_module_allows_add_at(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def scatter_add(target, idx, values):
                np.add.at(target, idx, values)
            """,
            name="exempt_backend.py",
        )
        assert res.findings == []


# ---------------------------------------------------------- suppressions


class TestSuppressionsAndBaseline:
    def test_inline_suppression(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def kernel(n):
                return np.zeros(n)  # repro-lint: disable=KA001
            """,
        )
        assert res.findings == []
        assert [f.rule for f in res.suppressed] == ["KA001"]

    def test_file_wide_suppression(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            # repro-lint: disable-file=KA001
            import numpy as np

            def a(n):
                return np.zeros(n)

            def b(n):
                return np.empty(n)
            """,
        )
        assert res.findings == []
        assert len(res.suppressed) == 2

    def test_suppressing_wrong_rule_does_not_silence(self, tmp_path):
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def kernel(n):
                return np.zeros(n)  # repro-lint: disable=KA005
            """,
        )
        assert rules_of(res) == ["KA001"]

    def test_syntax_error_is_engine_error(self, tmp_path):
        res = lint_source(tmp_path, "def broken(:\n    pass\n")
        assert res.exit_code == 2
        assert res.errors


# ------------------------------------------------------------- self-lint


class TestRepoSelfLint:
    def test_repo_lints_clean_against_committed_baseline(self):
        """The self-lint gate: the committed tree has no open finding.

        (There is no baseline file any more; the id is the one the test
        floor tracks.)"""
        res = run_lint([SRC / "repro"], root=REPO_ROOT)
        assert res.errors == []
        new = "\n".join(f.render() for f in res.findings)
        assert res.findings == [], f"kernel-contract violations:\n{new}"

    def test_analyzer_finds_the_historical_violations(self, tmp_path):
        """The exact pre-fix patterns from production.py/vectorized.py are
        caught: this pins the analyzer against the violations this PR fixed."""
        res = lint_source(
            tmp_path,
            """
            import numpy as np

            def _evaluate(n, row_atom, fi_rows):
                forces64 = np.zeros((n, 3))
                np.add.at(forces64, row_atom, fi_rows)
                return forces64
            """,
        )
        assert rules_of(res) == ["KA001", "KA005"]


# ------------------------------------------------------------- hot_path marker


class TestHotPathMarker:
    def test_marker_returns_function_unchanged(self):
        def f(x):
            return x + 1

        marked = hot_path(f)
        assert marked is f
        assert marked(1) == 2
        assert f.__repro_hot_path__ is True

    def test_marker_with_reason(self):
        @hot_path(reason="test")
        def g():
            return 42

        assert g() == 42
        assert g.__repro_hot_path_reason__ == "test"

    def test_production_entry_points_registered(self):
        import repro.core.sw.production  # noqa: F401  (side effect: registration)
        import repro.core.tersoff.production  # noqa: F401  (side effect: registration)
        import repro.md.pair_lj_vectorized  # noqa: F401  (side effect: registration)

        names = set(HOT_PATH_REGISTRY)
        assert any(n.endswith("PipelinePotential.compute") for n in names)
        assert any(n.endswith("TersoffKernel.evaluate") for n in names)
        assert any(n.endswith("SWKernel.evaluate") for n in names)
        assert any(n.endswith("LennardJonesVectorized.compute") for n in names)
        assert any(n.endswith("InteractionCache.prepare") for n in names)
        assert any(n.endswith("segsum3") for n in names)


# ------------------------------------------------------- scatter equivalence


@pytest.mark.parametrize("precision", [Precision.DOUBLE, Precision.SINGLE, Precision.MIXED])
class TestScatterEquivalence:
    def _rows(self, precision, seed):
        rng = np.random.default_rng(seed)
        cd = precision.compute_dtype
        n, C = 17, 64
        target = np.zeros((n, 3), dtype=np.float64)
        idx = rng.integers(0, n, size=C)
        rows = rng.standard_normal((C, 3)).astype(cd)
        return target, idx, rows

    def test_scatter_add_rows_bitwise_matches_add_at(self, precision):
        target, idx, rows = self._rows(precision, 0)
        expect = target.copy()
        np.add.at(expect, idx, rows)
        scatter_add_rows(target, idx, rows)
        assert target.dtype == expect.dtype
        assert np.array_equal(
            target.view(np.uint64), expect.view(np.uint64)
        ), f"scatter migration not bitwise-identical ({precision.value})"

    def test_masked_scatter_matches_masked_add_at(self, precision):
        target, idx, rows = self._rows(precision, 1)
        mask = idx % 2 == 0
        expect = target.copy()
        np.add.at(expect, idx[mask], rows[mask].astype(np.float64))
        scatter_add_rows(target, idx, rows, mask=mask)
        assert np.array_equal(target.view(np.uint64), expect.view(np.uint64))

    def test_scatter_add_flat(self, precision):
        target = np.zeros(11, dtype=precision.accum_dtype)
        idx = np.array([0, 3, 3, 10, 0])
        vals = np.arange(5, dtype=target.dtype)
        expect = target.copy()
        np.add.at(expect, idx, vals)
        scatter_add(target, idx, vals)
        assert np.array_equal(target, expect)


# ------------------------------------------------------------- CLI contract


def run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.mark.slow
class TestLintCLI:
    def test_seeded_violation_exits_1(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.add.at([], 0, 1)\n")
        proc = run_cli(str(bad), cwd=REPO_ROOT)
        assert proc.returncode == 1
        assert "KA005" in proc.stdout

    def test_clean_file_exits_0(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("import numpy as np\nx = np.zeros(3, dtype=np.float64)\n")
        proc = run_cli(str(good), cwd=REPO_ROOT)
        assert proc.returncode == 0

    def test_repo_tree_exits_0_with_baseline(self):
        proc = run_cli(cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.add.at([], 0, 1)\n")
        proc = run_cli(str(bad), "--format=json", cwd=REPO_ROOT)
        data = json.loads(proc.stdout)
        assert data["summary"]["exit_code"] == 1
        assert data["findings"][0]["rule"] == "KA005"

    def test_rule_selection(self, tmp_path):
        # KA005 applies everywhere; selecting only KA003 must silence it
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.add.at([], 0, 1)\n")
        proc = run_cli(str(bad), "--rules=KA003", cwd=REPO_ROOT)
        assert proc.returncode == 0
        proc = run_cli(str(bad), "--rules=KA005", cwd=REPO_ROOT)
        assert proc.returncode == 1
        assert "KA005" in proc.stdout

    def test_unknown_rule_exits_2(self, tmp_path):
        proc = run_cli("--rules=KA999", cwd=REPO_ROOT)
        assert proc.returncode == 2

    def test_missing_path_exits_2(self, tmp_path):
        # a typo in a CI path must not be a green check
        missing = tmp_path / "no" / "such" / "dir"
        proc = run_cli(str(missing), cwd=REPO_ROOT)
        assert proc.returncode == 2, proc.stdout
        assert str(missing) in proc.stdout

    def test_path_without_sources_exits_2(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "notes.md").write_text("# notes\n")
        for target in (REPO_ROOT / "README.md", tmp_path / "docs"):
            proc = run_cli(str(target), cwd=REPO_ROOT)
            assert proc.returncode == 2, proc.stdout
            assert str(target) in proc.stdout
        # one good path does not excuse a bad one beside it
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        proc = run_cli(str(good), str(tmp_path / "docs"), cwd=REPO_ROOT)
        assert proc.returncode == 2, proc.stdout

    def test_list_rules(self):
        proc = run_cli("--list-rules", cwd=REPO_ROOT)
        assert proc.returncode == 0
        for rid in ("KA001", "KA002", "KA003", "KA004", "KA005"):
            assert rid in proc.stdout


# ------------------------------------------------------------- sanitize


class TestSanitize:
    def test_sanitize_raises_on_unguarded_division(self):
        x = np.array([1.0, 2.0])
        zero = np.array([1.0, 0.0])
        with pytest.raises(FloatingPointError):
            with sanitize():
                _ = x / zero

    def test_inner_errstate_still_wins(self):
        x = np.array([1.0])
        zero = np.array([0.0])
        with sanitize():
            with np.errstate(divide="ignore"):
                out = x / zero
        assert np.isinf(out[0])

    def test_underflow_does_not_raise(self):
        with sanitize():
            out = np.exp(np.array([-800.0]))
        assert out[0] == 0.0

    def test_check_force_result_accepts_clean(self):
        r = ForceResult(energy=1.0, forces=np.zeros((2, 3)), virial=0.0, stats={})
        assert check_force_result(r) is r

    def test_check_force_result_names_bad_field(self):
        forces = np.zeros((2, 3))
        forces[1, 2] = np.nan
        r = ForceResult(energy=1.0, forces=forces, virial=0.0, stats={})
        with pytest.raises(SanitizeError, match="forces"):
            check_force_result(r)

    def test_check_force_result_checks_stats_arrays(self):
        r = ForceResult(
            energy=1.0,
            forces=np.zeros((2, 3)),
            virial=0.0,
            stats={"per_atom_energy": np.array([0.0, np.inf])},
        )
        with pytest.raises(SanitizeError, match="per_atom_energy"):
            check_force_result(r)

    def test_sanitized_potential_wraps_and_raises(self):
        class NaNPotential:
            cutoff = 1.0
            needs_full_list = False

            def compute(self, system, neigh):
                return ForceResult(
                    energy=float("nan"), forces=np.zeros((1, 3)), virial=0.0, stats={}
                )

        wrapped = SanitizedPotential(NaNPotential())
        system = SimpleNamespace(n=1)
        with pytest.raises(SanitizeError, match="energy"):
            wrapped.compute(system, None)

    def test_sanitized_potential_passthrough(self):
        clean = ForceResult(energy=-1.5, forces=np.zeros((1, 3)), virial=0.0, stats={"x": 1})

        class CleanPotential:
            cutoff = 2.5
            needs_full_list = True
            extra_attr = "forwarded"

            def compute(self, system, neigh):
                return clean

        wrapped = SanitizedPotential(CleanPotential())
        assert wrapped.cutoff == 2.5
        assert wrapped.needs_full_list is True
        assert wrapped.extra_attr == "forwarded"
        assert wrapped.compute(SimpleNamespace(n=1), None) is clean

    def test_sanitized_potential_catches_fp_fault(self):
        class FaultyPotential:
            cutoff = 1.0
            needs_full_list = False

            def compute(self, system, neigh):
                return ForceResult(
                    energy=float(np.array([1.0]) / np.array([0.0])),
                    forces=np.zeros((1, 3)),
                    virial=0.0,
                    stats={},
                )

        wrapped = SanitizedPotential(FaultyPotential())
        with pytest.raises(SanitizeError):
            wrapped.compute(SimpleNamespace(n=1), None)

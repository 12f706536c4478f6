"""Command-line interface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "Opt-M" and args.atoms == 512


def _subcommands(parser):
    return {name: sub for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for name, sub in action.choices.items()}


def _option_flags(parser):
    """Long options of `parser` and of everything nested under it."""
    own = {o for action in parser._actions for o in action.option_strings
           if o.startswith("--") and o != "--help"}
    return sorted(own) + [f for sub in _subcommands(parser).values() for f in _option_flags(sub)]


class TestTrackedQuantities:
    """ROADMAP's north star: commands, flags and executor spellings "go
    down".  A PR that adds one has to edit a number here to do it."""

    def test_commands_and_flags_do_not_grow(self):
        parser = build_parser()
        assert len(_subcommands(parser)) <= 10
        assert len(_option_flags(parser)) <= 39

    def test_config_fields_do_not_grow(self):
        """A flag's library twin counts too: a new run-spec or serve
        field has to edit a tuple here."""
        from dataclasses import fields

        from repro.runtime import RunSpec
        from repro.serve import ServeConfig

        assert tuple(f.name for f in fields(RunSpec)) == (
            "solver", "workers", "ranks", "executor", "hosts", "skin")
        assert tuple(f.name for f in fields(ServeConfig)) == (
            "host", "port", "unix_path", "max_sessions", "per_tenant_cap", "skin",
            "backlog", "max_atoms", "request_timeout")

    def test_python_source_lines_do_not_grow(self):
        import repro

        package = Path(repro.__file__).parent

        def lines(root):
            return sum(len(f.read_text().splitlines()) for f in root.rglob("*.py"))

        assert lines(package) <= 18_311
        assert lines(package / "analysis") <= 2_650

    def test_lint_is_one_stateless_pass(self):
        lint = _subcommands(build_parser())["lint"]
        assert _option_flags(lint) == ["--format", "--list-rules", "--rules"]

    def test_executor_spellings(self):
        from repro.parallel.executor import EXECUTOR_NAMES

        assert EXECUTOR_NAMES == ("serial", "thread", "process", "tcp", "unix")
        run = _subcommands(build_parser())["run"]
        (executor,) = [a for a in run._actions if a.dest == "executor"]
        assert tuple(executor.choices) == EXECUTOR_NAMES


class TestInfo:
    def test_lists_backends_and_machines(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for token in ("avx2", "imci", "cuda", "IV+2KNC", "KNL"):
            assert token in out

    def test_names_what_was_built_for_the_compiled_backend(self, capsys):
        from repro import backends
        from repro.backends import cext

        if not backends.is_available("compiled"):
            pytest.skip("compiled backend unavailable (no C toolchain)")
        from repro.host import usable_cores

        assert main(["info"]) == 0
        built = cext.build_info()
        assert (f"compiled available — cext, scheme 1a, 4 lanes × {usable_cores()} threads, "
                f"built for {built['isa']}" in capsys.readouterr().out)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
    def test_reports_usable_not_installed_cores(self):
        """The count is the one benchmarks/e2e records and refuses on:
        cores this process may run on, not cores the machine has — and
        the threads of the compiled kernel follow it."""
        from repro import backends

        code = ("import os, sys\n"
                "from repro.cli import main\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "sys.exit(main(['info']))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert "(1 usable cores)" in proc.stdout
        if backends.is_available("compiled"):
            assert "4 lanes × 1 threads" in proc.stdout


class TestRun:
    def test_short_tersoff_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "ns/day" in out and "64 Si atoms" in out

    def test_sw_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "5", "--potential", "sw"]) == 0
        assert "sw" in capsys.readouterr().out

    def test_ref_mode_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "2", "--mode", "Ref"]) == 0
        assert "Ref" in capsys.readouterr().out

    def test_compiled_run_says_how_many_threads_ran(self, capsys):
        """64 atoms are below the grain: one thread, whatever the host."""
        from repro import backends

        if not backends.is_available("compiled"):
            pytest.skip("compiled backend unavailable (no C toolchain)")
        assert main(["run", "--atoms", "64", "--steps", "2", "--backend", "compiled"]) == 0
        assert "kernel: compiled (cext), 1 threads on the last call" in capsys.readouterr().out


class TestFigure:
    def test_table(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "ARM" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fast_forward" in out

    def test_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err


class TestSweep:
    def test_sweep_small(self, capsys):
        assert main(["sweep", "--machines", "WM", "KNC", "--single-thread"]) == 0
        out = capsys.readouterr().out
        assert "WM" in out and "KNC" in out and "Opt-M" in out


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "12/12 checks passed" in out
        assert "FAIL" not in out


class TestProfile:
    def test_profile_renders(self, capsys):
        assert main(["profile", "--isa", "avx512", "--precision", "mixed"]) == 0
        out = capsys.readouterr().out
        assert "cycle profile" in out and "avx512" in out

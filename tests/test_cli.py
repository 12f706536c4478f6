"""Command-line interface."""

import argparse
import importlib
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import backends
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        from repro.runtime.spec import run_from_args

        run, lattice = run_from_args(build_parser().parse_args(["run"]))
        assert run.solver.mode == "Opt-M" and lattice["atoms"] == 512


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

        from repro.md.neighbor import NeighborSettings
        from repro.runtime import RunSpec
        from repro.serve import ServeConfig

        assert RunSpec().skin == ServeConfig().skin == NeighborSettings(cutoff=3.0).skin
        assert tuple(f.name for f in fields(RunSpec)) == (
            "solver", "workers", "ranks", "executor", "hosts", "skin")
        assert tuple(f.name for f in fields(ServeConfig)) == (
            "host", "port", "unix_path", "max_sessions", "per_tenant_cap", "skin",
            "backlog", "max_atoms", "request_timeout")

    def test_python_source_lines_do_not_grow(self):
        """The package and the test suite (ROADMAP 14(c)) alike."""
        import repro

        package = Path(repro.__file__).parent

        def lines(root):
            return sum(len(f.read_text().splitlines()) for f in root.rglob("*.py"))

        assert lines(package) <= 17_357
        assert lines(package / "analysis") <= 2_571
        assert lines(Path(__file__).parent) <= 14_947

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
        from repro.backends import cext

        if not backends.is_available("compiled"):
            pytest.skip("compiled backend unavailable (no C toolchain)")
        from repro.host import usable_cores

        assert main(["info"]) == 0
        built = cext.build_info()
        assert (f"compiled available — cext × {usable_cores()} threads, built for "
                f"{built['isa']}; {built['summary']}" in capsys.readouterr().out)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
    def test_reports_usable_not_installed_cores(self):
        """The count is the one benchmarks/e2e records and refuses on:
        cores this process may run on, not cores the machine has — and
        the threads of the compiled kernel follow it."""
        code = ("import os, sys\n"
                "from repro.cli import main\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "sys.exit(main(['info']))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert "(1 usable cores)" in proc.stdout
        if backends.is_available("compiled"):
            assert "cext × 1 threads" in proc.stdout


class TestRun:
    def test_short_tersoff_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "ns/day" in out and "64 Si atoms" in out

    def test_sw_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "5", "--potential", "sw"]) == 0
        assert "sw" in capsys.readouterr().out

    def test_cache_line_counts_what_is_counted(self, capsys, tmp_path):
        """Hits and invalidations, in the run's report and the telemetry
        summary alike; no layer counts a miss, so no line prints one."""
        path = tmp_path / "telemetry.jsonl"
        assert main(["run", "--atoms", "64", "--steps", "4", "--telemetry", str(path)]) == 0
        run_out = capsys.readouterr().out
        assert main(["telemetry", "summarize", str(path)]) == 0
        for out in (run_out, capsys.readouterr().out):
            (line,) = [ln for ln in out.splitlines() if ln.startswith("interaction cache:")]
            assert re.fullmatch(r"interaction cache: \d+ hits, \d+ invalidations \(list v\d+\)", line)

    def test_ref_mode_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "2", "--mode", "Ref"]) == 0
        assert "Ref" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--atoms", "8"], "exceeds half the shortest periodic box edge"),
        (["--steps", "-1"], "steps must be non-negative"),
        (["--temperature", "-5"], "temperature must be non-negative"),
        (["--skin", "-1"], "skin must be non-negative"),
        (["--traj-every", "0"], "--traj-every must be >= 1"),
        (["--telemetry-every", "0"], "--telemetry-every must be >= 1"),
        (["--checkpoint-every", "-1"], "--checkpoint-every must be >= 1"),
        (["--checkpoint-every", "0"], "--checkpoint-every must be >= 1"),
        (["--temperature", "nan"], "temperature must be finite"),
        (["--skin", "nan"], "skin must be finite"),
    ])
    def test_refuses_bad_input_before_the_run(self, flags, message, capsys):
        """A typed refusal, exit 2, not a traceback out of sim.run."""
        assert main(["run", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run: ") and message in err

    def test_compiled_run_says_how_many_threads_ran(self, capsys):
        """64 atoms are below the grain: one thread, whatever the host."""
        if not backends.is_available("compiled"):
            pytest.skip("compiled backend unavailable (no C toolchain)")
        assert main(["run", "--atoms", "64", "--steps", "2", "--backend", "compiled"]) == 0
        assert "kernel: compiled (cext), 1 threads on the last call" in capsys.readouterr().out


@pytest.fixture(scope="module")
def two_rank_ckpt(tmp_path_factory):
    """One 64-atom Opt-M checkpoint on 2 workers x 2 ranks."""
    path = tmp_path_factory.mktemp("restart") / "a.ckpt"
    assert main(["run", "--atoms", "64", "--steps", "1", "--workers", "2", "--executor",
                 "thread", "--checkpoint", str(path)]) == 0
    return path


def _other_backend():
    return {"numpy": "compiled"}.get(backends.get_default(), "numpy")


class TestRestartFlags:
    """ROADMAP 24: a restart applies every flag it is given, or refuses
    it with one ``run:`` line; a new flag fails here until classified."""

    @pytest.mark.parametrize("flag", _option_flags(_subcommands(build_parser())["run"]))
    def test_every_flag_is_applied_or_refused(self, flag, two_rank_ckpt, tmp_path, capsys,
                                              monkeypatch):
        from repro.parallel.transport import run_worker
        from repro.runtime.spec import RUN_FLAGS

        monkeypatch.chdir(tmp_path)  # --checkpoint-every alone writes run.ckpt here
        dest = flag[2:].replace("-", "_")
        (kind,) = [kind for kind, dests in RUN_FLAGS.items() if dest in dests]
        rows = {  # dest: (value, exit code) pairs; a switch takes no value
            "potential": [("sw", 2), ("tersoff", 0)], "mode": [("Opt-D", 2), ("Opt-M", 0)],
            "backend": [(_other_backend(), 2), (backends.get_default(), 0)],
            "skin": [("0.5", 2), ("1.0", 0)], "atoms": [("512", 2), ("60", 0)],
            "ranks": [("1", 2), ("2", 0)], "temperature": [("600", 2)], "seed": [("2016", 2)],
            "workers": [("1", 0)], "executor": [("serial", 0)], "hosts": [("w0.sock,w1.sock", 0)],
            "sanitize": [(None, 0)], "steps": [("1", 0)], "checkpoint": [("b.ckpt", 0)],
            "checkpoint_every": [("1", 0)], "telemetry": [("t.jsonl", 0)],
            "telemetry_every": [("1", 0)], "traj": [("t.rtrj", 0)], "traj_every": [("1", 0)],
            "restart_from": [(str(two_rank_ckpt), 0)],
        }[dest]
        assert [code for _, code in rows] == {"pinned": [2, 0], "unrecorded": [2]}.get(kind, [0])
        bound = []  # two `repro worker` listeners, one session each, for --hosts
        for sock in ("w0.sock", "w1.sock") if dest == "hosts" else ():
            threading.Thread(target=run_worker, daemon=True, kwargs={
                "unix": sock, "once": True, "_ready": bound.append}).start()
        while len(bound) < 2 * (dest == "hosts"):
            time.sleep(0.01)
        for value, code in rows:
            given = [flag] + ([] if value is None else [value])
            assert main(["run", "--restart-from", str(two_rank_ckpt), "--steps", "0", *given]) == code
            err = capsys.readouterr().err
            assert (err.startswith("run: ") and err.count("\n") == 1 and f"{flag} " in err
                    if code else err == ""), err

    def test_a_restart_names_every_refused_flag(self, two_rank_ckpt, capsys):
        flags = {"--atoms": "512", "--temperature": "3000", "--mode": "Opt-D",
                 "--potential": "sw", "--seed": "7", "--backend": _other_backend()}
        assert main(["run", "--restart-from", str(two_rank_ckpt), "--steps", "0",
                     *(w for item in flags.items() for w in item)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and all(f"{flag} " in err for flag in flags)

    def test_a_library_checkpoint_of_other_species_is_refused(self, tmp_path, capsys):
        """a-SiGe pins no spec, and Tersoff Si cannot evaluate Ge."""
        ckpt = shutil.copy(Path(__file__).parent / "fixtures" / "a-sige-216.ckpt", tmp_path)
        assert main(["run", "--restart-from", str(ckpt), "--steps", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("restart: checkpoint species ('Si', 'Ge')")


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


#: What a serial run, the runtime/serve import and the parser never load:
#: the parallel engine and its wire, the cost model and figure drivers,
#: the lint machinery, the trajectory/telemetry writers and the paper's
#: lane-simulated and scalar kernels.
_NOT_LOADED = (
    "repro.perf", "repro.harness",
    *(f"repro.parallel.{m}" for m in ("engine", "transport", "cluster", "decomposition", "comm")),
    *(f"repro.analysis.{m}" for m in ("engine", "rules", "crules", "dataflow", "callgraph", "sanitize")),
    "repro.state.telemetry", "repro.state.trajectory", "repro.core.schemes",
    *(f"repro.core.tersoff.{m}" for m in ("vectorized", "optimized", "reference")),
)

#: The public names ``repro`` serves: none may go.
_PUBLIC = {
    "AtomSystem", "Box", "ISA", "LennardJones", "MODES", "NeighborList",
    "NeighborSettings", "Precision", "Simulation", "TersoffOptimized", "TersoffParams",
    "TersoffProduction", "TersoffReference", "TersoffVectorized", "VectorBackend",
    "__version__", "diamond_lattice", "get_isa", "list_isas", "make_solver",
    "select_scheme", "tersoff_carbon", "tersoff_germanium", "tersoff_si",
    "tersoff_si_1988", "tersoff_sic", "tersoff_sige",
}


def _loaded_after(code):
    """The ``repro`` modules a fresh interpreter holds after `code`."""
    code += "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('repro')))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return set(proc.stdout.splitlines()[-1].split())


def _forbidden(loaded):
    return sorted(m for m in loaded
                  if any(m == f or m.startswith(f + ".") for f in _NOT_LOADED))


class TestImportLayering:
    """A command imports what it runs: package ``__init__`` files
    re-export nothing a command did not ask for."""

    def test_serial_run(self):
        loaded = _loaded_after("from repro.cli import main\n"
                               "main(['run', '--atoms', '64', '--steps', '0'])")
        assert _forbidden(loaded) == []

    def test_runtime_and_serve_import(self):
        """The default solver's kernel class comes with the runtime, so
        benchmarks/e2e/spans.py, which wraps every kernel class that
        exists when it installs, times the numpy Tersoff kernel too."""
        loaded = _loaded_after("import repro.runtime, repro.serve")
        assert "repro.core.tersoff.production" in loaded
        assert _forbidden(loaded) == []

    def test_parser(self):
        loaded = _loaded_after("from repro.cli import build_parser\nbuild_parser()")
        assert _forbidden(loaded) == []
        assert "repro.runtime" not in loaded and "repro.md" not in loaded

    def test_root_package_imports_nothing(self):
        assert _loaded_after("import repro") == {"repro"}

    def test_every_module_is_reached(self):
        """ROADMAP 15(c): a module that no command (module- or
        function-level import from ``python -m repro``), example,
        benchmark or test fixture reaches either earns a caller or goes."""
        import ast

        src = Path(importlib.import_module("repro").__file__).parent
        repo = Path(__file__).resolve().parents[1]
        modules = {".".join(("repro", *p.relative_to(src).with_suffix("").parts))
                   .removesuffix(".__init__"): p for p in src.rglob("*.py")}
        # the paper's LJ lane simulator stays as a reproduction layer (ROADMAP)
        exempt = {"repro.md.pair_lj_vectorized"}
        reached, todo = set(), []

        def visit(target):
            parts = target.split(".")
            for name in (".".join(parts[:i]) for i in range(1, len(parts) + 1)):
                if name in modules and name not in reached:
                    reached.add(name)
                    todo.append((modules[name], name))

        visit("repro.__main__")
        for pattern in ("examples/*.py", "benchmarks/**/*.py", "tests/fixtures/*.py"):
            todo += [(path, "") for path in repo.glob(pattern)]
        while todo:
            path, name = todo.pop()
            package = name if path.name == "__init__.py" else name.rpartition(".")[0]
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        visit(alias.name)
                elif isinstance(node, ast.ImportFrom):
                    base = package.rsplit(".", node.level - 1)[0] if node.level else ""
                    base = ".".join(filter(None, (base, node.module)))
                    for alias in node.names:
                        visit(f"{base}.{alias.name}")
        assert exempt <= set(modules) - reached  # a stale exemption goes too
        unreached = sorted(set(modules) - reached - exempt)
        assert not unreached, f"nothing imports {unreached}"

    def test_public_names_resolve_lazily(self):
        import repro
        from repro.runtime.spec import MODES

        assert set(repro.__all__) == _PUBLIC
        assert repro.MODES is MODES
        for name in sorted(_PUBLIC - {"MODES", "__version__"}):
            obj = getattr(repro, name)
            assert getattr(importlib.import_module(obj.__module__), name) is obj
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

"""Rule engine: file discovery, suppressions, result assembly.

The engine is a pure function of the sources: it walks them, classifies
each module (kernel module? scatter-exempt?), parses it once, runs every
enabled rule over the shared :class:`~repro.analysis.rules.ModuleContext`
and drops the findings suppressed in place.  It reads no other file and
writes none.

**Suppressions** are the one mechanism for exceptions:
``# repro-lint: disable=KA001`` (comma-separated rule ids, or ``all``)
on the offending line silences it there, with the argument next to it;
``# repro-lint: disable-file=KA004`` on its own line anywhere in the
file silences a rule for the whole module.

Exit-code contract (used verbatim by CI): 0 = clean, 1 = findings,
2 = engine/configuration error (a syntax error, an unreadable file, a
path that does not exist or holds no source).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.crules import C_RULE_IDS, check_c_source, is_c_source
from repro.analysis.rules import ALL_RULES, RULE_FAMILIES, Finding, Rule, make_context

__all__ = ["Finding", "LintConfig", "LintResult", "run_lint", "repo_root", "default_paths"]

# suppressions may live in python comments (`# repro-lint: ...`) or in
# C comments (`/* repro-lint: ... */`, `// repro-lint: ...`)
_SUPPRESS_RE = re.compile(r"(?:#|//|/\*)\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"(?:#|//|/\*)\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


def expand_rule_selection(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Expand a ``--rules`` selection into concrete rule ids.

    A token is either a rule id (``KA001``) or a two-letter family
    (``KB`` selects KB001..KB003; ``KE`` selects the C rules).  Unknown
    tokens raise ``ValueError`` so typos fail loudly in CI.
    """
    known_ids = {r.id for r in ALL_RULES} | set(C_RULE_IDS)
    out: list[str] = []
    for token in tokens:
        tok = token.strip().upper()
        if not tok:
            continue
        if tok in known_ids:
            out.append(tok)
        elif tok in RULE_FAMILIES:
            out.extend(sorted(i for i in known_ids if i.startswith(tok)))
        else:
            raise ValueError(
                f"unknown rule or family '{token}' "
                f"(families: {', '.join(RULE_FAMILIES)})"
            )
    return tuple(dict.fromkeys(out))


@dataclass
class LintConfig:
    """What to check and where the contracts apply.

    The ``*_modules`` tuples are matched as posix-path substrings
    against the repo-relative module path; the defaults encode this
    repository's layout and can be overridden in tests
    (``kernel_modules=("",)`` makes everything a kernel module).
    ``physics_modules`` scope the KB determinism rules,
    ``worker_modules`` the KC003 fork-snapshot rule, and ``c_modules``
    the KE C-kernel pass.
    """

    kernel_modules: tuple[str, ...] = (
        "repro/core/",
        "repro/backends/",
        "repro/vector/backend.py",
        "repro/md/pair_lj_vectorized.py",
    )
    scatter_exempt_modules: tuple[str, ...] = ("repro/vector/backend.py",)
    physics_modules: tuple[str, ...] = (
        "repro/core/",
        "repro/parallel/",
        "repro/md/",
        "repro/state/",
    )
    worker_modules: tuple[str, ...] = (
        "repro/parallel/",
        "repro/backends/",
        "repro/serve/",
    )
    c_modules: tuple[str, ...] = ("repro/backends/",)
    enabled_rules: tuple[str, ...] | None = None  # None = all

    def rule_ids(self) -> tuple[str, ...] | None:
        if self.enabled_rules is None:
            return None
        return expand_rule_selection(self.enabled_rules)

    def rules(self) -> tuple[Rule, ...]:
        ids = self.rule_ids()
        if ids is None:
            return ALL_RULES
        return tuple(r for r in ALL_RULES if r.id in ids)

    def c_rule_ids(self) -> set[str]:
        ids = self.rule_ids()
        if ids is None:
            return set(C_RULE_IDS)
        return {i for i in C_RULE_IDS if i in ids}

    def classify(self, rel_path: str) -> dict[str, bool]:
        rel = rel_path.replace("\\", "/")
        return {
            "is_kernel_module": any(pat in rel for pat in self.kernel_modules),
            "is_scatter_exempt": any(pat in rel for pat in self.scatter_exempt_modules),
            "is_physics_module": any(pat in rel for pat in self.physics_modules),
            "is_worker_module": any(pat in rel for pat in self.worker_modules),
        }

    def is_c_module(self, rel_path: str) -> bool:
        rel = rel_path.replace("\\", "/")
        return any(pat in rel for pat in self.c_modules)


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)  # gate-failing
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0

    def as_dict(self) -> dict:
        return {
            "version": 3,
            "files_checked": self.files_checked,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed_count": len(self.suppressed),
            "errors": self.errors,
            "summary": self.summary(),
        }

    def summary(self) -> dict:
        by_rule: dict[str, int] = {}
        by_family: dict[str, int] = {}
        for f in self.findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
            by_family[f.family] = by_family.get(f.family, 0) + 1
        return {
            "findings": len(self.findings),
            "suppressed": len(self.suppressed),
            "by_rule": by_rule,
            "by_family": by_family,
            "exit_code": self.exit_code,
        }


def repo_root() -> Path:
    """The repository root (parent of ``src/``), best effort."""
    here = Path(__file__).resolve()
    for ancestor in here.parents:
        if (ancestor / "src" / "repro").is_dir() or (ancestor / ".git").is_dir():
            return ancestor
    return here.parents[3]


def default_paths() -> list[Path]:
    return [Path(__file__).resolve().parents[1]]  # src/repro


def _iter_sources(paths: list[Path], errors: list[str]) -> list[Path]:
    """Every source under ``paths``; a path that yields none is an error.

    A gate that passes on nothing is a typo away from a green check, so
    a missing path or one without a ``.py``/``.c``/``.h`` file is
    reported (exit 2), not skipped.
    """
    files: list[Path] = []
    for p in paths:
        found: list[Path] = []
        if p.is_dir():
            found = sorted(p.rglob("*.py"))
            found.extend(sorted(q for q in p.rglob("*") if q.suffix in (".c", ".h")))
        elif p.suffix in (".py", ".c", ".h") and p.is_file():
            found = [p]
        if not found:
            why = "no .py/.c/.h source to check" if p.exists() else "no such file or directory"
            errors.append(f"{p}: {why}")
        files.extend(found)
    return files


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_suppressions(source_lines: list[str]) -> tuple[dict[int, set[str]], set[str]]:
    """(lineno -> suppressed rule ids, file-wide suppressed rule ids)."""
    per_line: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    for i, line in enumerate(source_lines, start=1):
        m = _SUPPRESS_FILE_RE.search(line)
        if m:
            file_wide |= {tok.strip().upper() for tok in m.group(1).split(",") if tok.strip()}
            continue
        m = _SUPPRESS_RE.search(line)
        if m:
            per_line[i] = {tok.strip().upper() for tok in m.group(1).split(",") if tok.strip()}
    return per_line, file_wide


def _is_suppressed(f: Finding, per_line: dict[int, set[str]], file_wide: set[str]) -> bool:
    if "ALL" in file_wide or f.rule in file_wide:
        return True
    rules = per_line.get(f.line)
    return rules is not None and ("ALL" in rules or f.rule in rules)


def _lint_one_file(
    rel: str, source: str, config: LintConfig, result: LintResult
) -> tuple[list[Finding], list[Finding]] | None:
    """(kept, suppressed) findings for one file, or None on parse error."""
    per_line, file_wide = _parse_suppressions(source.splitlines())
    if is_c_source(rel):
        if not config.is_c_module(rel):
            return [], []
        candidates = check_c_source(rel, source, enabled=config.c_rule_ids())
    else:
        try:
            ctx = make_context(rel, source, **config.classify(rel))
        except SyntaxError as exc:
            result.errors.append(f"{rel}: syntax error at line {exc.lineno}: {exc.msg}")
            return None
        candidates = [f for rule in config.rules() for f in rule.check(ctx)]
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for f in candidates:
        (suppressed if _is_suppressed(f, per_line, file_wide) else kept).append(f)
    return kept, suppressed


def run_lint(
    paths: list[Path] | None = None,
    *,
    config: LintConfig | None = None,
    root: Path | None = None,
) -> LintResult:
    """Run every enabled rule over ``paths`` and assemble a result.

    ``root`` anchors the repo-relative paths used in findings and in the
    module classification (defaults to the repository root).
    """
    config = config or LintConfig()
    paths = paths if paths is not None else default_paths()
    root = (root or repo_root()).resolve()

    result = LintResult()
    for path in _iter_sources(paths, result.errors):
        rel = _rel_path(path, root)
        try:
            source = path.read_bytes().decode()
        except OSError as exc:
            result.errors.append(f"{rel}: unreadable ({exc})")
            continue
        except UnicodeDecodeError as exc:
            result.errors.append(f"{rel}: undecodable ({exc})")
            continue
        outcome = _lint_one_file(rel, source, config, result)
        if outcome is None:
            continue
        kept, suppressed = outcome
        result.files_checked += 1
        result.findings.extend(kept)
        result.suppressed.extend(suppressed)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result

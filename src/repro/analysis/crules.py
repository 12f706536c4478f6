"""C-kernel REAL-discipline rules (KE family).

``backends/_tersoff_impl.h`` and the lane layer under it (``_vec.h``,
``_vmath.h``) are a precision template: compiled twice by
``_tersoff.c``, once with ``#define REAL double`` and once with
``#define REAL float``, exactly the paper's single-source
double/mixed/single scheme (Sec. V-D).  That only works if the
template body never commits to a concrete floating type:

KE001
    a scalar ``double``/``float`` *declaration* inside template code —
    local variables, array element types, and return types must be
    ``REAL`` (or ``double`` only where the interface deliberately pins
    it, e.g. ``(double)`` accumulation casts and ``double *`` buffer
    parameters, both of which are allowed).  Vector lanes follow the
    same rule through their typedef: ``typedef REAL v
    __attribute__((vector_size(N * sizeof(REAL))))`` is REAL-clean and
    ``typedef ACC vacc __attribute__((vector_size(N * sizeof(ACC))))``
    is the accumulator interface (``ACC`` is pinned on a ``#define``
    line, like every deliberate f64), while a lane typedef spelled
    ``typedef double ...`` is flagged — it would freeze both
    instantiations at one width.
KE002
    a bare floating-point *literal* (``1.0``, ``.5f``, ``1e-3``) not
    preceded by a ``(REAL)``, ``(ACC)`` or ``(double)`` cast and not on
    a preprocessor line; an uncast literal is ``double`` in C, silently
    promoting single-precision arithmetic back to double.  Polynomial
    coefficient tables are ``#define``d per instantiation.

What is deliberately allowed:

- preprocessor lines (``#define REAL double`` *is* the template
  mechanism; named constants like ``#define HALF_PI_D 1.570…`` pin
  double on purpose);
- pointer declarations — ``const double *restrict x`` is the fixed
  f64 interface layer of the mixed-precision contract;
- ``(double)``/``(ACC)`` casts and ``sizeof(double)`` — explicit
  accumulation promotion and interface-buffer sizing;
- everything that is not floating point: the thread pool (``_pool.c``)
  and the chunk bookkeeping of the template declare ``pthread_*``
  objects, ``_Atomic int64_t`` counters and ``int64_t`` records, none of
  which can leak a REAL.  A per-chunk *partial sum* is ``ACC`` like
  every accumulator — spelled ``double`` it is flagged, also as
  ``_Atomic double`` or ``_Atomic(double)``, which is a declaration and
  not the cast it looks like;
- comments and string literals (stripped before matching, with line
  numbers preserved).

This is a token-level lint, not a C parser: it is sound for the
disciplined subset the kernels are written in and conservative
(silent) about anything it cannot classify.  Suppression uses the same
grammar as the python rules, spelled in C comments:
``/* repro-lint: disable=KE002 */`` on the offending line, or
``/* repro-lint: disable-file=KE001 */`` anywhere for the whole file.
"""

from __future__ import annotations

import re

from repro.analysis.rules import Finding

#: rule ids, for ``--list-rules`` and family selection
C_RULE_IDS: tuple[str, ...] = ("KE001", "KE002")

C_RULE_DESCRIPTIONS: dict[str, str] = {
    "KE001": (
        "scalar double/float declaration or vector-lane typedef in "
        "REAL-templated C kernel code; use REAL (ACC for accumulator lanes) "
        "so the template stays precision-neutral (pointer params, (double) "
        "casts and sizeof(double) are the allowed f64 interface)"
    ),
    "KE002": (
        "bare floating-point literal in REAL-templated C kernel code; an "
        "uncast literal is double and silently promotes single-precision "
        "arithmetic — write (REAL)1.0 (or (ACC)1.0 / (double)1.0 for "
        "deliberate accumulation constants)"
    ),
}

_C_SUFFIXES = (".c", ".h")


def is_c_source(name: str) -> bool:
    return name.endswith(_C_SUFFIXES)


def _strip_comments_and_strings(source: str) -> list[str]:
    """Blank out comments/char/string literals, preserving line structure.

    Every stripped character becomes a space so columns stay stable for
    findings.  Handles ``/* ... */`` spanning lines, ``//`` to EOL, and
    escaped quotes inside literals.
    """
    out: list[str] = []
    i, n = 0, len(source)
    buf: list[str] = []
    state = "code"  # code | block | line | str | chr
    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "\n":
            out.append("".join(buf))
            buf = []
            if state == "line":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "*":
                state = "block"
                buf.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "/":
                state = "line"
                buf.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "str"
                buf.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "chr"
                buf.append(" ")
                i += 1
                continue
            buf.append(ch)
            i += 1
            continue
        if state == "block":
            if ch == "*" and nxt == "/":
                state = "code"
                buf.append("  ")
                i += 2
                continue
            buf.append(" ")
            i += 1
            continue
        if state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if ch == "\\":
                buf.append("  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
            buf.append(" ")
            i += 1
            continue
        # state == "line"
        buf.append(" ")
        i += 1
    out.append("".join(buf))
    return out


def _preprocessor_lines(clean_lines: list[str]) -> set[int]:
    """1-based line numbers belonging to preprocessor directives,
    including backslash continuations."""
    out: set[int] = set()
    continuing = False
    for idx, line in enumerate(clean_lines, start=1):
        if continuing or line.lstrip().startswith("#"):
            out.add(idx)
            continuing = line.rstrip().endswith("\\")
        else:
            continuing = False
    return out


_TYPE_WORD_RE = re.compile(r"\b(double|float)\b")

_FP_LITERAL_RE = re.compile(
    r"(?<![\w.])(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)[fFlL]?"
)

_CAST_PREFIX_RE = re.compile(r"\(\s*(?:const\s+)?(?:REAL|ACC|double)\s*\)\s*[-+]?\s*$")

_LANE_TYPEDEF_RE = re.compile(r"\btypedef\b.*\bvector_size\b")


def _finding(path: str, lines: list[str], rule: str, lineno: int, col: int, msg: str) -> Finding:
    code = lines[lineno - 1].strip() if 1 <= lineno <= len(lines) else ""
    return Finding(rule=rule, path=path, line=lineno, col=col + 1, message=msg, code=code)


def check_c_source(path: str, source: str, enabled: set[str] | None = None) -> list[Finding]:
    """Run the KE rules over one C source; suppressions are handled by
    the engine exactly like python findings."""
    source_lines = source.splitlines()
    clean = _strip_comments_and_strings(source)
    preproc = _preprocessor_lines(clean)
    findings: list[Finding] = []
    run_ke001 = enabled is None or "KE001" in enabled
    run_ke002 = enabled is None or "KE002" in enabled

    for lineno, line in enumerate(clean, start=1):
        if lineno in preproc:
            continue
        if run_ke001:
            for m in _TYPE_WORD_RE.finditer(line):
                before = line[: m.start()].rstrip()
                after = line[m.end():].lstrip()
                # (double) casts and sizeof(double): '(' ... ')' — but
                # _Atomic(double) is a type specifier, i.e. a declaration
                if (before.endswith("(") and after.startswith(")")
                        and not before.endswith("_Atomic(")):
                    continue
                # pointer declarations are the fixed f64 interface layer
                rest = after
                while rest.startswith(("restrict", "const")):
                    rest = rest.split(None, 1)[1] if " " in rest else ""
                    rest = rest.lstrip()
                if after.startswith("*") or rest.startswith("*"):
                    continue
                if _LANE_TYPEDEF_RE.search(line):
                    msg = (f"vector lanes of '{m.group(1)}' in REAL-templated kernel "
                           "code; lanes are REAL (the accumulator vector ACC)")
                else:
                    msg = (f"scalar '{m.group(1)}' declaration in REAL-templated "
                           "kernel code; use REAL (pointer params and casts are exempt)")
                findings.append(_finding(path, source_lines, "KE001", lineno, m.start(), msg))
        if run_ke002:
            for m in _FP_LITERAL_RE.finditer(line):
                before = line[: m.start()]
                if _CAST_PREFIX_RE.search(before):
                    continue
                findings.append(
                    _finding(
                        path,
                        source_lines,
                        "KE002",
                        lineno,
                        m.start(),
                        f"bare floating-point literal '{m.group(0)}' is double; "
                        "write (REAL)" + m.group(0) + " or pin it on a #define line",
                    )
                )
    return findings

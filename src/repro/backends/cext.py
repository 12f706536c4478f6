"""Runtime C-extension builder/loader.

The package ships C source — the compiled backend's list walker
``_walker.c`` with its two potentials, ``_tersoff.c`` and ``_sw.c`` and
their REAL-templated bodies ``_tersoff_impl.h`` / ``_sw_impl.h`` over the
lane abstraction ``_vec.h`` / ``_vmath.h``, the thread pool ``_pool.c``,
the cell-list neighbor build ``_neighbor.c`` and an MD step's integrator,
skin test and rank-order force reduction ``_step.c`` — and compiles it into one shared object on first use with
the host toolchain: no build-time step, no binary wheels, and ``pip
install repro`` stays pure-Python.  The shared object is keyed by a
content hash of the sources, the compile flags, the compiler identity
and the host's instruction set, cached under ``~/.cache/repro/cext``
(override with ``REPRO_CEXT_CACHE``), and published atomically (tmp file
+ ``os.replace``) so concurrent builders — e.g. spawn-executor workers
warming simultaneously — race benignly.

Float-determinism flags are part of the contract, not an optimization
choice: ``-fno-fast-math -ffp-contract=off`` keeps every expression at
one rounding per operator, which is what makes the documented ULP
bounds against the numpy backend (DESIGN.md §12) hold.  The host-ISA
flag (``-march=native`` where the compiler takes it) is the opposite: it
only chooses the instructions the kernel's four lanes are lowered to and
changes no result bit (``tests/test_backends.py::TestIsaIndependence``),
but an object built with it must not be loaded on a lesser host — hence
the ISA tag in the key, for cache directories shared between machines.

``REPRO_NO_CEXT=1`` force-disables the toolchain probe; tests and the
``backend-fallback`` CI leg use it to exercise the numpy fallback on hosts that do
have a compiler.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

from repro.host import usable_cores

_SRC_DIR = Path(__file__).resolve().parent
_UNITS = ("_walker.c", "_tersoff.c", "_sw.c", "_neighbor.c", "_pool.c", "_step.c")
_SOURCES = _UNITS + ("_walker.h", "_tersoff_impl.h", "_sw_impl.h", "_vec.h", "_vmath.h",
                     "_common.h", "_pool.h")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-pthread", "-fno-fast-math", "-ffp-contract=off",
           "-fno-math-errno", "-Wno-psabi")
#: tried first, dropped when the compiler rejects it (generic lowering of
#: the vector types is just as correct)
_HOST_ISA_FLAGS = ("-march=native",)
_COMPILERS = ("cc", "gcc", "clang")
#: Rows per thread below which one more thread does not pay for its wake-up
#: (EXPERIMENTS.md "Thread scaling"): 1728 rows stay on one thread, 2048 get
#: two.  The compiled kernel and the C list build both split by it.
THREAD_GRAIN = 1024

_lib: ctypes.CDLL | None = None
_fns: dict[str, object] = {}
_build_error: str | None = None


class CextBuildError(RuntimeError):
    """The toolchain probe passed but the actual build failed."""


def find_compiler() -> str | None:
    """Path of the C compiler to use, or ``None`` if the host has none."""
    if os.environ.get("REPRO_NO_CEXT"):
        return None
    env_cc = os.environ.get("CC")
    candidates = (env_cc,) + _COMPILERS if env_cc else _COMPILERS
    for name in candidates:
        found = shutil.which(name)
        if found:
            return found
    return None


def probe() -> str | None:
    """``None`` when the extension can be built here, else the reason."""
    if os.environ.get("REPRO_NO_CEXT"):
        return "disabled by REPRO_NO_CEXT"
    if _lib is not None:
        return None  # loaded: the toolchain is not needed again
    if find_compiler() is None:
        return "no C compiler on PATH (tried CC, cc, gcc, clang)"
    return _build_error


def _compiler_identity(cc: str) -> str:
    """`cc` (apart from the binary it resolves to: ccache's ``gcc`` and ``clang``
    are one), that binary, its size and mtime, read without a subprocess: a child
    of a large process is charged that process's peak RSS."""
    real = os.path.realpath(cc)
    try:
        st = os.stat(real)
    except OSError:
        return f"{cc}:{real}"
    return f"{cc}:{real}:{st.st_size}:{st.st_mtime_ns}"


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "cext"


def _isa_tag() -> str:
    """What ``-march=native`` means on this host, read without a
    subprocess: the machine plus a digest of the CPU feature flags."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    flags = " ".join(sorted(set(line.partition(":")[2].split())))
                    return f"{platform.machine()}-{hashlib.sha256(flags.encode()).hexdigest()[:8]}"
    except OSError:
        pass
    return platform.machine()


def _build_key(cc: str) -> str:
    h = hashlib.sha256()
    for name in _SOURCES:
        h.update(name.encode())
        h.update((_SRC_DIR / name).read_bytes())
    h.update(" ".join(_CFLAGS + _HOST_ISA_FLAGS).encode())
    h.update(_compiler_identity(cc).encode())
    h.update(_isa_tag().encode())
    return h.hexdigest()[:16]


def _compile(cc: str, isa_flags: tuple[str, ...], out: str) -> tuple[list[str], str | None]:
    """One compiler run into ``out``: ``(command, stderr or None on success)``."""
    units = [str(_SRC_DIR / name) for name in _UNITS]
    cmd = [cc, *_CFLAGS, *isa_flags, *units, f"-I{_SRC_DIR}", "-o", out, "-lm"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    return cmd, None if res.returncode == 0 else res.stderr.strip()


def build(force: bool = False) -> Path:
    """Compile (or reuse) the shared object; returns its path."""
    cc = find_compiler()
    if cc is None:
        raise CextBuildError(probe() or "no C compiler found")
    cache = _cache_dir()
    so_path = cache / f"tersoff_{_build_key(cc)}.so"
    if so_path.exists() and not force:
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    try:
        # host lowering first; a compiler that rejects the flag builds the
        # generic lowering under the same key (the key names the attempt)
        for isa_flags in (_HOST_ISA_FLAGS, ()):
            cmd, err = _compile(cc, isa_flags, tmp)
            if err is None:
                break
        else:
            raise CextBuildError(f"C backend build failed ({' '.join(cmd)}):\n{err}")
        os.replace(tmp, so_path)  # atomic publish; concurrent builders race benignly
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _entry_points(lib: ctypes.CDLL) -> dict[str, object]:
    """Typed entry points of one loaded shared object."""
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p

    def bind(symbol: str, argtypes: list, restype):
        fn = getattr(lib, symbol)
        fn.argtypes = argtypes
        fn.restype = restype
        return fn

    fns: dict[str, object] = {}
    # <potential>_fused_*(n_atoms, offsets, neighbors, in_offsets, in_entries,
    # types, x, geo, ntypes, cut, ptab, max_row, threads, scratch, partial,
    # where, forces, peratom, stress, info) -> code, and the doubles of scratch
    # one call needs for (max_row, ntypes, n_atoms, threads); shapes and dtypes
    # are enforced by the caller (CompiledListKernel)
    fused = [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr, i64, i64,
             ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    for potential in ("tersoff", "sw"):
        for suffix in ("f64", "f32"):
            fns[f"{potential}_{suffix}"] = bind(f"{potential}_fused_{suffix}", fused, ctypes.c_int)
        fns[f"{potential}_scratch"] = bind(f"{potential}_scratch_doubles", [i64] * 4, i64)
    for suffix in ("f64", "f32"):
        # test hook: ters_vmath_*(kind, n, in, in2, out) -> code (_vmath.h)
        fns[f"vmath_{suffix}"] = bind(f"ters_vmath_{suffix}", [i64, i64, ptr, ptr, ptr], ctypes.c_int)
    # neighbor_build(n, x, geo, nbins, periodic, full, cell, cell_start,
    # order, xs, cap, offsets, neighbors, threads, info) -> entries, a larger
    # cap or -code; shapes and dtypes are enforced by the caller (NeighborList.build)
    fns["neighbor_build"] = bind(
        "neighbor_build",
        [i64, ptr, ptr, ptr, ptr, i32, ptr, ptr, ptr, ptr, i64, ptr, ptr, i64, ptr], i64)
    # _step.c: md_kick(c, n, v, f, type, mass, ntypes), md_initial(the same, dt, x, lo,
    # lengths, 3 x periodic) -> 0/1; md_max_disp2(n, x, x_ref, 3 x length, 3 x periodic);
    # md_reduce_rows(n, out, ranks, idx pointers, rows, block pointers) -> 0/1
    f64 = ctypes.c_double
    kick = [f64, i64, ptr, ptr, ptr, ptr, i64]
    fns["md_kick"] = bind("md_kick", kick, i64)
    fns["md_initial"] = bind("md_initial", kick + [f64, ptr, ptr, ptr, i32, i32, i32], i64)
    fns["md_max_disp2"] = bind("md_max_disp2", [i64, ptr, ptr, f64, f64, f64, i32, i32, i32], f64)
    fns["md_reduce_rows"] = bind("md_reduce_rows", [i64, ptr, i64, ptr, ptr, ptr], i64)
    # neighbor_transpose(n, n_entries, neighbors, in_offsets, in_entries)
    # -> entries placed or -1 (repro.md.neighbor.incoming_index)
    fns["neighbor_transpose"] = bind("neighbor_transpose", [i64, i64, ptr, ptr, ptr], i64)
    fns["lanes"] = bind("ters_lanes", [], i64)
    fns["isa"] = bind("ters_isa", [], ctypes.c_char_p)
    return fns


def load() -> dict[str, object]:
    """Build if needed, load the library, and return the entry points.

    Returns ``{"tersoff_f64": <fn>, "sw_f32": <fn>, "neighbor_build": <fn>, ...}``
    (every key of :func:`_entry_points`); cached per process.  A failed
    build is remembered: from then on
    :func:`probe` gives its message as the reason the extension is
    unavailable, so callers that probe first fall back instead of
    recompiling on every call.
    """
    global _lib, _build_error
    if _lib is None:
        try:
            so_path = build()
        except CextBuildError as exc:
            # a worker forked before the failure retries the build once
            # and then remembers it itself; results never depend on it
            _build_error = str(exc)  # repro-lint: disable=KC003
            raise
        # process-local lazy singleton: dlopen handles survive fork and
        # spawn re-imports fresh, so each worker lazily loads its own
        _lib = ctypes.CDLL(str(so_path))  # repro-lint: disable=KC003
        _fns.update(_entry_points(_lib))  # repro-lint: disable=KC003
    return _fns


def loaded() -> bool:
    return _lib is not None


def entry(name: str):
    """The entry point `name` of :func:`load`, or ``None`` where :func:`probe`
    finds the extension unavailable or its build fails (remembered there)."""
    try:
        return None if probe() else load()[name]
    except CextBuildError:
        return None


def threads_for(rows: int, share: int | None) -> int:
    """``min(share, rows // THREAD_GRAIN)``, at least 1; `share` None: every usable core."""
    threads = rows // THREAD_GRAIN
    return max(1, min(threads, usable_cores() if share is None else share)) if threads > 1 else 1


def build_info() -> dict[str, object]:
    """What the loaded kernel is (loads it if need be): the mapping
    scheme, its lane count and the ISA the compiler lowered the lanes to."""
    fns = load()
    return {"scheme": "1a", "lanes": int(fns["lanes"]()), "isa": fns["isa"]().decode()}

"""Pluggable compute backends (the repo's Sec.-V argument made real).

The paper's thesis is performance portability: one algorithm,
specialized per instruction set through an abstraction layer.  This
package is that abstraction layer for the reproduction: a registry of
:class:`ComputeBackend` entries, each able to supply a
``MultiBodyKernel`` for every potential family of the staged pipeline
(Tersoff and SW).  Every kernel gets the same cached neighbor list from
the shared `InteractionCache` and runs its family's filter itself.

Registered backends:

- ``compiled`` — C kernels compiled at first use with the host
  toolchain; one list walker reads positions and the CSR neighbor list
  directly and fuses filter, geometry and each potential's body in one
  pass.  The default wherever the extension loads (probe passes *and*
  build/load succeeds).
- ``numpy``    — the wide-vector numpy kernels; always available, the
  oracle (DESIGN.md §12) and the default without a working toolchain.

Selection: ``TersoffProduction(backend=...)``,
``StillingerWeberProduction(backend=...)``, ``SolverSpec.backend``,
``repro run --backend``; ``None`` is :func:`get_default`, chosen without
a warning (a default is not a request).  A *requested* backend that
cannot run here falls back to ``numpy`` with a one-time warning;
``fallback=False`` makes that a hard error instead.
"""

from __future__ import annotations

import warnings

from repro.backends.base import BackendUnavailableError, ComputeBackend, UnknownBackendError

__all__ = [
    "BackendUnavailableError",
    "ComputeBackend",
    "UnknownBackendError",
    "available",
    "get",
    "get_default",
    "is_available",
    "names",
    "register",
    "resolve",
]

_REGISTRY: dict[str, ComputeBackend] = {}
_FALLBACK_WARNED: set[str] = set()


def register(backend: ComputeBackend) -> ComputeBackend:
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} already registered")
    # import-time registration: populated before any executor forks,
    # identical in every process that imports the package
    _REGISTRY[backend.name] = backend  # repro-lint: disable=KC003
    return backend


def names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get(name: str) -> ComputeBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered: {', '.join(names())}"
        ) from None


def available() -> dict[str, str | None]:
    """Capability probe: ``{name: None}`` if usable, else the reason not."""
    return {name: _REGISTRY[name].probe() for name in names()}


def is_available(name: str) -> bool:
    return get(name).probe() is None


def get_default() -> str:
    """``compiled`` where the extension loads, else ``numpy``."""
    return "compiled" if is_available("compiled") else "numpy"


def resolve(name: str | None = None, *, fallback: bool = True) -> ComputeBackend:
    """Resolve a backend name (``None`` = process default) to a usable entry.

    Requested but unavailable + ``fallback=True``: returns the ``numpy`` backend and
    warns once per backend name per process.  ``fallback=False`` raises
    :class:`BackendUnavailableError` instead (bench cases use this so a
    "compiled" measurement can never silently time numpy).
    """
    backend = get(name if name is not None else get_default())
    reason = backend.probe()
    if reason is None:
        return backend
    if not fallback:
        raise BackendUnavailableError(f"backend {backend.name!r} unavailable: {reason}")
    if backend.name not in _FALLBACK_WARNED:
        # warn-once cosmetics: a stale fork snapshot only repeats the
        # warning in a worker, it never changes results
        _FALLBACK_WARNED.add(backend.name)  # repro-lint: disable=KC003
        warnings.warn(
            f"compute backend {backend.name!r} unavailable ({reason}); "
            "falling back to 'numpy'",
            RuntimeWarning,
            stacklevel=2,
        )
    return get("numpy")


# ---------------------------------------------------------------------------
# built-in backends (factories import lazily: registering costs nothing,
# and the production potentials can import this package cycle-free)
# ---------------------------------------------------------------------------


def _numpy_probe() -> str | None:
    return None


def _make_numpy_kernel(family, params, precision):
    if family == "sw":
        from repro.core.sw.production import SWKernel

        return SWKernel(params, precision)
    from repro.core.tersoff.production import TersoffKernel

    return TersoffKernel(params, precision)


def _compiled_probe() -> str | None:
    # a compiler on PATH is not a working one (CC=false): load, and `cext`
    # remembers a failed build so that it is tried once per process
    from repro.backends import cext

    try:
        return cext.probe() or (cext.load() and None)
    except cext.CextBuildError as exc:
        return str(exc)


def _make_compiled_kernel(family, params, precision):
    from repro.backends.compiled import CompiledSWKernel, CompiledTersoffKernel

    return (CompiledSWKernel if family == "sw" else CompiledTersoffKernel)(params, precision)


register(
    ComputeBackend(
        name="numpy",
        description="wide-vector numpy kernels (the oracle; default without a toolchain)",
        probe=_numpy_probe,
        make_kernel=_make_numpy_kernel,
    )
)

register(
    ComputeBackend(
        name="compiled",
        description="one-pass C list walker built with the host toolchain",
        probe=_compiled_probe,
        make_kernel=_make_compiled_kernel,
    )
)

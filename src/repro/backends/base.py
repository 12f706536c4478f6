"""Backend descriptor and error types for the compute-backend registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class UnknownBackendError(ValueError):
    """Requested backend name is not registered."""


class BackendUnavailableError(RuntimeError):
    """Requested backend is registered but cannot run on this host."""


@dataclass(frozen=True)
class ComputeBackend:
    """One entry in the compute-backend registry.

    A backend is a *kernel supplier*: given a potential family
    (``"tersoff"``, ``"sw"``), its parameterization and a precision mode
    it returns a :class:`~repro.core.pipeline.kernel.MultiBodyKernel`
    implementation.  Everything around the kernel — neighbor lists, the
    staged pipeline, `InteractionCache`/`Workspace`, the parallel engine —
    is backend-agnostic and shared verbatim.

    ``probe`` answers "can this backend run here?" without importing or
    building anything heavy: ``None`` means available, a string is the
    human-readable reason it is not.
    """

    name: str
    description: str
    probe: Callable[[], str | None]
    make_kernel: Callable[[str, Any, Any], Any]

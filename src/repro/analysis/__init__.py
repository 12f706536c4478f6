"""Kernel-contract static analysis (``repro lint``) and runtime checks.

The paper's correctness story rests on invariants the *compiler*
enforced for Höhnerbach et al. but that pure-Python numpy cannot: the
precision modes are derived from a single algorithm (Sec. V-D/E), the
conflict-safe scatter is a named building block (Sec. V-A (3)), and
masked lanes must never poison live results (Fig. 1 schemes).  In this
repository those contracts used to live only in DESIGN.md prose — the
legacy-code drift the AIREBO follow-up (arXiv:1810.07026) identifies as
the enemy of sustained performance.

This package turns the contracts into machine-checked rules:

- :mod:`repro.analysis.engine` — one stateless pass over ``src/repro``
  (python AST rules, C token rules) with in-place suppressions as the
  only mechanism for exceptions;
- :mod:`repro.analysis.dataflow` — lightweight intra-function dataflow
  (which names hold compute-dtype arrays, which are masks, which
  allocations flow through the :class:`~repro.core.pipeline.Workspace`);
- :mod:`repro.analysis.rules` — the KA001–KA005 kernel-contract rules;
- :mod:`repro.analysis.cli` — the ``repro lint`` subcommand (text and
  JSON output, CI exit-code contract);
- :mod:`repro.analysis.sanitize` — the runtime companion: a debug-only
  FP-exception + NaN guard around force calls (``repro run --sanitize``).

Only :func:`hot_path` lives in this module directly so that importing
it from hot production code pulls in no AST machinery.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)

#: qualified name -> callable for every function marked ``@hot_path``.
HOT_PATH_REGISTRY: dict[str, Callable] = {}


def hot_path(fn: _F | None = None, *, reason: str | None = None) -> _F:
    """Mark a function as hot-path for the KA003 allocation rule.

    Zero call-time overhead: the decorator sets two attributes on the
    function and returns it *unchanged* (no wrapper frame).  The static
    analyzer recognizes the decorator syntactically; the registry exists
    for introspection and tests.
    """

    def mark(f):
        f.__repro_hot_path__ = True
        f.__repro_hot_path_reason__ = reason
        HOT_PATH_REGISTRY[f"{f.__module__}.{f.__qualname__}"] = f
        return f

    return mark(fn) if fn is not None else mark


__all__ = ["HOT_PATH_REGISTRY", "hot_path"]

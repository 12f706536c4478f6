"""Benchmark-suite helpers.

Every ``bench_*`` module regenerates one table or figure of the paper:
the benchmark timing measures the cost of regenerating the artifact,
and the body prints the paper-style rows/series and asserts this
reproduction's bands.  Run with ``pytest benchmarks/ --benchmark-only``
(add ``-s`` to see the rendered artifacts).
"""

from __future__ import annotations

from functools import lru_cache

import pytest


def pytest_collection_modifyitems(items):
    """The benchmark collection is long-running by construction: mark
    every item ``bench`` + ``slow`` so tier-1 (`-m "not slow"`) skips it
    wholesale."""
    for item in items:
        item.add_marker(pytest.mark.bench)
        item.add_marker(pytest.mark.slow)


@lru_cache(maxsize=8)
def si_workload(cells: int, seed: int = 1):
    """Perturbed diamond-Si system + built neighbor list, ``8 * cells^3``
    atoms.  Cached: the benches time the work, not the construction."""
    from repro.core.tersoff.parameters import tersoff_si
    from repro.md.lattice import diamond_lattice, perturbed
    from repro.md.neighbor import NeighborList, NeighborSettings

    params = tersoff_si()
    system = perturbed(diamond_lattice(cells, cells, cells), 0.1, seed=seed)
    neigh = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    neigh.build(system.x, system.box)
    return params, system, neigh


def regenerate(benchmark, driver, *args, **kwargs):
    """Run an experiment driver under the benchmark, render it, return it."""
    result = benchmark.pedantic(driver, args=args, kwargs=kwargs, rounds=1, iterations=1)
    print()
    print(result.render())
    return result


@pytest.fixture(scope="session")
def warm_profiles():
    """Pre-measure the kernel profiles shared by the figure benches so
    individual benchmark timings reflect their own work."""
    from repro.harness.experiments import kernel_profile

    for mode, isa in (
        ("Ref", "scalar"),
        ("Opt-D", "avx"), ("Opt-S", "avx"), ("Opt-M", "avx"),
        ("Opt-D", "avx2"), ("Opt-S", "avx2"), ("Opt-M", "avx2"),
        ("Opt-D", "sse4.2"), ("Opt-S", "sse4.2"), ("Opt-M", "sse4.2"),
        ("Opt-D", "neon"), ("Opt-S", "neon"),
        ("Opt-D", "imci"), ("Opt-M", "imci"),
        ("Opt-D", "avx512"), ("Opt-M", "avx512"),
        ("Opt-D", "cuda"),
    ):
        kernel_profile(mode, isa)
    return True

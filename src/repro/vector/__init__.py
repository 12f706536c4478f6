"""The portable vector abstraction (paper Sec. V).

The paper writes the Tersoff algorithm *once* against an abstract
vector interface and specializes per-ISA building blocks: vector-wide
conditionals, in-register reductions, conflict-write handling, and
adjacent-gather optimization.  Explicit SIMD is not expressible in pure
Python, so this package provides a *lane-faithful simulator* of that
interface:

- lanes are simulated exactly — a "vector register" is a row of a
  ``(chunks, W)`` numpy array, masks are boolean rows, and all masking,
  fast-forwarding and conflict-serialization decisions are made per
  lane exactly as the paper's backends would;
- every operation is *counted* against the active ISA's cost table, so
  downstream the performance model (:mod:`repro.perf`) can convert a
  kernel execution into cycles on any of the paper's machines;
- numerics are real: single/double/mixed precision use genuine
  float32/float64 arithmetic, so the Fig. 3 accuracy experiment is a
  true numerical experiment, not a model.

Public surface: :class:`~repro.vector.isa.ISA` (and the registry of the
paper's instruction sets), :class:`~repro.vector.backend.VectorBackend`,
:class:`~repro.vector.cost.CostCounter`, and
:class:`~repro.vector.precision.Precision`.
"""

"""The Tersoff multi-body potential — the paper's primary contribution.

Implementations, in the order the paper develops them:

- :class:`~repro.core.tersoff.reference.TersoffReference` — Algorithm 2,
  the LAMMPS-shipped baseline (``Ref``);
- :class:`~repro.core.tersoff.optimized.TersoffOptimized` — Algorithm 3
  scalar optimizations (Sec. IV-A);
- :class:`~repro.core.tersoff.vectorized.TersoffVectorized` — the
  schemes (1a)/(1b)/(1c) on the portable vector abstraction
  (Sec. IV-B/C/D), instruction-counted per ISA;
- :class:`~repro.core.tersoff.production.TersoffProduction` — the wide
  numpy rendition of the optimized kernel used for real simulations,
  with step-persistent staging from
  :class:`~repro.core.pipeline.InteractionCache`.
"""

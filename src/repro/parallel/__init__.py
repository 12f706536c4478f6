"""Domain decomposition, halo exchange, network models — and a real
parallel execution engine.

The paper uses "vanilla LAMMPS' MPI-based domain decomposition scheme"
(Sec. V-C) and evaluates up to 8 Xeon-Phi-augmented nodes (Fig. 9).
This package substitutes real MPI two ways: a *sequential-SPMD*
execution (every rank's computation runs in one process against its own
owned + ghost atom sets, messages are byte-accurate, and a
latency/bandwidth network model converts traffic into modelled
communication time), and :class:`~repro.parallel.engine.ParallelEngine`,
a persistent worker pool that runs those same ranks concurrently behind
an :class:`~repro.parallel.executor.EngineExecutor`: in-process, in
worker processes over shared-memory slabs, or behind framed sockets on
this or other hosts (:class:`~repro.parallel.transport.ClusterExecutor`)
— only ghost-region rows move either way.

Numerical fidelity is testable: the distributed force computation must
reproduce the single-domain forces exactly, and the engine must
reproduce the sequential decomposition bitwise for any worker count
(see ``tests/test_decomposition.py`` and
``tests/test_parallel_engine.py``).
"""

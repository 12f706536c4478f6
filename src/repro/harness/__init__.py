"""Experiment harness: drivers that regenerate every table and figure.

Each ``fig*``/``table*`` function returns an
:class:`~repro.harness.reporting.ExperimentResult` holding the series
or rows the paper reports plus the paper's reference values, and the
``benchmarks/`` suite renders and asserts them.
"""

"""Performance modelling: the paper's machines and the cycles->ns/day model.

The reproduction cannot run on Westmere, Knights Corner or Kepler
silicon; instead, kernel executions on the lane-faithful backend yield
per-ISA instruction/cycle counts, and this package converts them into
the paper's metric (ns/day) using the published machine parameters of
Tables I-III plus explicit, documented calibration constants.
"""

"""Adaptive Tikhonov regularization for ill-posed conditional moment problems.

Names are imported from the module that defines them, one per concern:

  spectral     closed-form diagonal-operator oracle and classical
               residual-based discrepancy selection
  sieve        finite linear function classes, datasets, Gram machinery
  estimators   operator-regression (RDIV) and adversarial (TRAE) fits
  discrepancy  the geometric lambda search driven by a noise schedule
  functional   sample splitting, doubly robust functionals, coverage
  dgp          seeded synthetic data generators with analytic truths
  harness      Monte Carlo experiment runner, rate fits, run records
  cli          command-line entry point
"""

# run_dp stays importable as adaptik.run_dp, the alias
# perfbench/tests/test_perfbench.py checks the tracer patches.
from adaptik.discrepancy import run_dp  # noqa: F401

__version__ = "0.1.0"

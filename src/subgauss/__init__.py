"""Numerical subgaussian concentration checks for conjugate posteriors.

The library verifies, at float64 precision, that Beta (and projected
Dirichlet) posteriors concentrate with variance proxy O(1/(alpha+beta)),
simulates the posterior-mean martingale behind that bound, and runs an
adaptive curator/analyst query game demonstrating that the posterior-mean
curator answers adaptively chosen queries at the static sample complexity.

The package import loads no submodule; import each name from the module that
defines it, e.g. `from subgauss.game import run_games`.
"""

__version__ = "0.1.0"

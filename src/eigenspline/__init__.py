"""Outlier-free spline Galerkin discretizations of the Laplace eigenproblem.

The package builds full spline spaces and their optimal/reduced subspaces
on (0, 1), assembles mass and stiffness matrices, solves the univariate
and tensor-product eigenproblems, verifies the a-priori frequency bounds,
counts spectral outliers, and solves Poisson problems with the boundary-
data correction that restores full convergence orders on the subspaces.
"""

from .assembly import (SymBandMatrix, assemble_load, assemble_mass,
                       assemble_stiffness, bspline_gram, function_error,
                       gauss_legendre)
from .eigensolve import generalized_eigen_sym
from .exceptions import ConfigError, NumericalError
from .poisson import (ManufacturedProblem1D, ManufacturedProblem2D,
                      fast_diagonalization_solve, hermite_correction_1d,
                      hermite_data_from_problem, l2_projection,
                      ritz_projection, solve_poisson_1d, solve_poisson_2d,
                      trace_from_f)
from .problems import get_preset
from .spaces import (BoundaryType, SpaceKind, SpaceSpec, boundary_residuals,
                     make_space, optimal_breaks, reduced_basis_matrix)
from .spectrum import (Spectrum1D, Spectrum2D, eigval_upper_bound,
                       eigval_upper_bound_sharp, exact_eigenfunction,
                       exact_frequencies, mode_errors, mode_errors_2d,
                       outlier_count, spectrum_1d, spectrum_2d)
from .splines import (KnotVector, basis_samples, bspline_eval_batch,
                      cardinal_bspline, cardinal_bspline_derivative)

__version__ = "0.1.0"

__all__ = [
    "BoundaryType", "ConfigError", "KnotVector", "ManufacturedProblem1D",
    "ManufacturedProblem2D", "NumericalError", "SpaceKind", "SpaceSpec",
    "Spectrum1D", "Spectrum2D", "SymBandMatrix", "assemble_load",
    "assemble_mass", "assemble_stiffness", "basis_samples",
    "boundary_residuals", "bspline_eval_batch", "bspline_gram",
    "cardinal_bspline", "cardinal_bspline_derivative", "eigval_upper_bound",
    "eigval_upper_bound_sharp", "exact_eigenfunction", "exact_frequencies",
    "fast_diagonalization_solve", "function_error", "gauss_legendre",
    "generalized_eigen_sym", "get_preset", "hermite_correction_1d",
    "hermite_data_from_problem", "l2_projection", "make_space", "mode_errors",
    "mode_errors_2d", "optimal_breaks", "outlier_count",
    "reduced_basis_matrix", "ritz_projection", "solve_poisson_1d",
    "solve_poisson_2d", "spectrum_1d", "spectrum_2d", "trace_from_f",
]

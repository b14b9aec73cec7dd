"""The public API: ``eigenspline.__all__`` changes only by a diff here."""

import eigenspline

PUBLIC = [
    "BoundaryType", "ConfigError", "KnotVector", "ManufacturedProblem1D",
    "ManufacturedProblem2D", "NumericalError", "SpaceKind", "SpaceSpec",
    "Spectrum1D", "Spectrum2D", "SymBandMatrix", "assemble_load",
    "assemble_mass", "assemble_stiffness", "basis_samples",
    "boundary_residuals", "bspline_eval_batch", "bspline_gram",
    "cardinal_bspline", "cardinal_bspline_derivative", "eigval_upper_bound",
    "eigval_upper_bound_sharp", "exact_eigenfunction", "exact_frequencies",
    "fast_diagonalization_solve", "function_error", "gauss_legendre",
    "generalized_eigen_sym", "get_preset", "hermite_correction_1d",
    "hermite_data_from_problem", "l2_projection", "make_space",
    "mode_errors", "mode_errors_2d", "optimal_breaks", "outlier_count",
    "reduced_basis_matrix", "ritz_projection", "solve_poisson_1d",
    "solve_poisson_2d", "spectrum_1d", "spectrum_2d", "trace_from_f",
]


def test_public_names_pinned():
    assert len(set(eigenspline.__all__)) == len(eigenspline.__all__)
    assert sorted(eigenspline.__all__) == PUBLIC


def test_public_names_resolve():
    for name in eigenspline.__all__:
        assert getattr(eigenspline, name) is not None

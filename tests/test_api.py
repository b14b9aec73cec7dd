"""The public API: ``eigenspline.__all__`` changes only by a diff here.

Also the layout rule: ``SymBandMatrix`` in ``assembly.py`` is the only
code that reads the packed band, builds a band by hand or solves with it.
"""

import dataclasses
import pathlib
import re

import eigenspline
from eigenspline.spectrum import ModeErrorReport

PUBLIC = [
    "BoundaryType", "ConfigError", "KnotVector", "ManufacturedProblem1D",
    "ManufacturedProblem2D", "NumericalError", "SpaceKind", "SpaceSpec",
    "Spectrum1D", "SymBandMatrix", "assemble_load",
    "assemble_mass", "assemble_stiffness", "basis_samples",
    "boundary_residuals", "bspline_eval_batch", "bspline_gram",
    "cardinal_bspline", "cardinal_bspline_derivative", "exact_frequencies",
    "fast_diagonalization_solve", "function_error", "gauss_legendre",
    "generalized_eigen_sym", "get_preset", "hermite_correction_1d",
    "hermite_data_from_problem", "l2_projection", "make_space", "mode_errors",
    "mode_errors_2d", "outlier_count", "reduced_basis_matrix",
    "ritz_projection", "solve_poisson_1d", "solve_poisson_2d", "spectrum_1d",
]


def test_public_names_pinned():
    assert len(eigenspline.__all__) == 37
    assert len(set(eigenspline.__all__)) == len(eigenspline.__all__)
    assert sorted(eigenspline.__all__) == PUBLIC


def test_spectrum_record_fields_pinned():
    # a spectrum keeps no eigenvector matrix
    assert [f.name for f in dataclasses.fields(eigenspline.Spectrum1D)] == [
        "spec", "eigenvalues", "frequencies", "overlaps", "e_fun"]


def test_mode_report_fields_pinned():
    # the one record of a univariate or tensor report
    assert [f.name for f in dataclasses.fields(ModeErrorReport)] == [
        "specs", "ls", "omega_exact", "omega_h", "e_freq", "e_fun", "bound",
        "zero_mode"]


def test_public_names_resolve():
    for name in eigenspline.__all__:
        assert getattr(eigenspline, name) is not None


BAND_LAYOUT = re.compile(r"\.band\b|\bSymBandMatrix\(|\bsolveh_banded\b")


def test_only_assembly_touches_the_band_layout():
    src = pathlib.Path(eigenspline.__file__).parent
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "assembly.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if BAND_LAYOUT.search(line)]
    assert found == []

"""Generalized symmetric eigensolver.

S v = lambda M v is reduced with a Cholesky factor of M and the resulting
symmetric problem is solved by tridiagonalization with implicit shifts
(LAPACK, via scipy).  The test suite cross-checks it against an
independent dense Jacobi-rotation oracle for small pencils.

It is the package's only eigensolver and the only code that forms an
eigenvector matrix: optimal and reduced spectra reach it only when their
sampled waves fail the certificate in :mod:`eigenspline.spectrum`, full
spectra always, and fast diagonalization calls it directly.  A spectrum
whose two ends share a boundary type calls it on the even and odd halves
of its mirror-symmetric pencil, so dense n x n pencils remain only for
mixed boundaries and fast diagonalization.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .assembly import SymBandMatrix, _finite
from .exceptions import NumericalError


def generalized_eigen_sym(s: SymBandMatrix, m: SymBandMatrix):
    """Solve S v = lambda M v for symmetric S and positive definite M.

    Returns (eigenvalues ascending, eigenvectors as columns) with the
    vectors M-orthonormal: V.T @ M @ V == I.  A non-finite entry in S or M
    raises NumericalError.
    """
    a = s.to_dense() if isinstance(s, SymBandMatrix) else np.asarray(s, float)
    b = m.to_dense() if isinstance(m, SymBandMatrix) else np.asarray(m, float)
    _finite(a, "eigensolve: stiffness")
    _finite(b, "eigensolve: mass")
    try:
        w, v = scipy.linalg.eigh(a, b, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    return w, v

"""Generalized symmetric eigensolver.

S v = lambda M v is reduced with a Cholesky factor of M and the resulting
symmetric problem is solved by tridiagonalization with implicit shifts
(LAPACK, via scipy); the eigenvalues are then the Rayleigh quotients of
the computed vectors on the pencil as given.  The test suite cross-checks
it against an independent dense Jacobi-rotation oracle for small pencils.

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

# Columns per block of the Rayleigh quotients: bounds their working memory
# at two (n x RAYLEIGH_BLOCK) products.
RAYLEIGH_BLOCK = 64


def generalized_eigen_sym(s: SymBandMatrix, m: SymBandMatrix):
    """Solve S v = lambda M v for symmetric S and positive definite M.

    Returns (eigenvalues ascending, eigenvectors as columns) with the
    vectors M-orthonormal: V.T @ M @ V == I.  A non-finite entry in S or M
    raises NumericalError.

    Each eigenvalue is the Rayleigh quotient v^T S v / v^T M v of its
    computed vector, taken through the banded product when S and M are
    banded.  LAPACK's own eigenvalues carry an absolute error of about
    eps * lambda_max, on the lowest modes of a spline pencil of n ~ 1000 a
    relative 1e-11 to 1e-10; the quotient of a vector accurate to first
    order is accurate to second order, so it carries little more than the
    pencil's own rounding.  Quotients of eigenvalues closer than their
    rounding may fall out of order; then pairs are re-sorted.
    """
    a = s.to_dense() if isinstance(s, SymBandMatrix) else np.asarray(s, float)
    b = m.to_dense() if isinstance(m, SymBandMatrix) else np.asarray(m, float)
    _finite(a, "eigensolve: stiffness")
    _finite(b, "eigensolve: mass")
    try:
        w, v = scipy.linalg.eigh(a, b, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    sa = s.to_sparse() if isinstance(s, SymBandMatrix) else a
    mb = m.to_sparse() if isinstance(m, SymBandMatrix) else b
    for lo in range(0, w.size, RAYLEIGH_BLOCK):
        vb = v[:, lo:lo + RAYLEIGH_BLOCK]
        w[lo:lo + RAYLEIGH_BLOCK] = np.einsum("ik,ik->k", vb, sa @ vb) \
            / np.einsum("ik,ik->k", vb, mb @ vb)
    if np.any(np.diff(w) < 0.0):
        order = np.argsort(w, kind="stable")
        w, v = w[order], v[:, order]
    return w, v

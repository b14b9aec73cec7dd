"""Dense Jacobi-rotation oracle for small generalized symmetric pencils.

Test-only reference for ``eigenspline.generalized_eigen_sym``: its own
Cholesky factorization, triangular solves and cyclic Jacobi sweeps, with
no LAPACK call, so agreement between the two routes is independent
evidence.
"""

import numpy as np

from eigenspline import NumericalError, SymBandMatrix

JACOBI_MAX_N = 64


def _cholesky_lower(b):
    n = b.shape[0]
    low = np.zeros_like(b)
    for j in range(n):
        d = b[j, j] - np.dot(low[j, :j], low[j, :j])
        if d <= 0.0 or not np.isfinite(d):
            raise NumericalError("matrix is not positive definite")
        low[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            low[i, j] = (b[i, j] - np.dot(low[i, :j], low[j, :j])) / low[j, j]
    return low


def _forward_solve(low, rhs):
    n = low.shape[0]
    y = np.array(rhs, dtype=float)
    for i in range(n):
        y[i] -= low[i, :i] @ y[:i]
        y[i] /= low[i, i]
    return y


def jacobi_generalized_eigen(s, m, tol=1e-14, max_sweeps=100):
    """Dense Jacobi-rotation oracle for small pencils (n <= 64).

    Reduces with its own Cholesky factorization and triangular solves,
    then runs cyclic Jacobi sweeps until the off-diagonal mass is gone.
    Returns the eigenvalues in ascending order.
    """
    s = s.to_dense() if isinstance(s, SymBandMatrix) else np.asarray(s, float)
    m = m.to_dense() if isinstance(m, SymBandMatrix) else np.asarray(m, float)
    n = s.shape[0]
    if n > JACOBI_MAX_N:
        raise NumericalError("jacobi oracle is limited to small pencils")
    low = _cholesky_lower(m)
    # C = L^{-1} S L^{-T}, formed column by column with triangular solves
    y = np.column_stack([_forward_solve(low, s[:, j]) for j in range(n)])
    c = np.column_stack([_forward_solve(low, y[j, :]) for j in range(n)])
    c = 0.5 * (c + c.T)

    scale = np.linalg.norm(c)
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(c, 1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = c[p, q]
                if abs(apq) <= 1e-30 * scale:
                    continue
                theta = 0.5 * (c[q, q] - c[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1))
                if theta == 0.0:
                    t = 1.0
                cs = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * cs
                rowp = c[p, :].copy()
                rowq = c[q, :].copy()
                c[p, :] = cs * rowp - sn * rowq
                c[q, :] = sn * rowp + cs * rowq
                colp = c[:, p].copy()
                colq = c[:, q].copy()
                c[:, p] = cs * colp - sn * colq
                c[:, q] = sn * colp + cs * colq
    else:
        raise NumericalError("jacobi sweeps did not converge")
    return np.sort(np.diag(c))

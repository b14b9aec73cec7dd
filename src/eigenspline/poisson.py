"""Poisson solves with boundary-data correction splines.

On the optimal and reduced subspaces the solution of -u'' = f generally
violates the subspace's built-in endpoint conditions (its even derivatives
at the boundary equal -f there instead of vanishing), which caps the
attainable convergence order.  The fix solves for u0 = u - s_u where s_u
is a boundary correction spline in the full space on the same knots
matching the offending derivatives: at each endpoint it interpolates the
even derivatives 0, 2, ..., 2*floor(p/2) of u (order 0 is the homogeneous
value, higher ones come from -f^{(alpha-2)}) and zeroes the odd orders
1, 3, ..., 2*floor((p-1)/2)+1.  For odd p the endpoint value of
u^{(p+1)} = -f^{(p-1)} cannot be carried by a degree-p correction, so the
corrected L2 error keeps a boundary-local h^{p+3/2} term that dominates
pre-asymptotically; what the correction guarantees is order at least p+1.
In 2D the correction is the Boolean sum of the per-direction corrections,
with trace data fitted by least squares in the transverse full spline space
and the tensor corner term subtracted.

Dirichlet boundaries only; the 2D solve runs through fast diagonalization
of the two univariate pencils.  The 2D load and error integrals run over
blocks of ``ROW_BLOCK`` x1 quadrature rows, so no full tensor grid of
samples is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .assembly import (SymBandMatrix, _error_norm, _finite, assemble_mass,
                       assemble_stiffness, bspline_gram, bspline_load,
                       error_b_coefficients, quadrature_grid)
from .eigensolve import generalized_eigen_sym
from .exceptions import ConfigError, NumericalError
from .spaces import BoundaryType, SpaceSpec
from .splines import KnotVector, active_derivatives, basis_samples

# x1 quadrature rows per block of the 2D load and error integrals: bounds
# their working memory at a few (nq2 x ROW_BLOCK) arrays.
ROW_BLOCK = 128


@dataclass
class ManufacturedProblem1D:
    """Problem -u'' = f on (0, 1), u(0) = u(1) = 0.

    ``f_deriv(order, x)`` evaluates derivatives of f (order 0 is f itself)
    and feeds the correction data; ``u``/``u_d1`` are optional exact
    references for error reporting.
    """

    name: str
    f: Callable
    f_deriv: Optional[Callable] = None
    u: Optional[Callable] = None
    u_d1: Optional[Callable] = None

    def validate(self, seed=0, npts=20, tol=1e-8):
        """Spot-check -u'' = f at random points (finite differences on u')."""
        if self.u is None or self.u_d1 is None:
            return
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.05, 0.95, npts)
        d = 1e-6
        upp = (self.u_d1(x + d) - self.u_d1(x - d)) / (2 * d)
        fx = self.f(x)
        err = np.max(np.abs(fx + upp) / np.maximum(1.0, np.abs(fx)))
        if not err <= tol:
            raise NumericalError(
                f"problem {self.name!r} fails the -u''=f spot check ({err:.2e})")


@dataclass
class ManufacturedProblem2D:
    """Problem -(u_x1x1 + u_x2x2) = f on the unit square, u = 0 on the edge.

    ``f_mixed(a1, a2, x1, x2)`` and ``u_mixed`` evaluate mixed derivatives
    (broadcasting); they feed the boundary correction traces.
    """

    name: str
    f: Callable
    f_mixed: Optional[Callable] = None
    u: Optional[Callable] = None
    u_x1: Optional[Callable] = None
    u_x2: Optional[Callable] = None
    u_mixed: Optional[Callable] = None

    def validate(self, seed=0, npts=20, tol=1e-10):
        if self.u_mixed is None:
            return
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(0.05, 0.95, npts)
        x2 = rng.uniform(0.05, 0.95, npts)
        lap = self.u_mixed(2, 0, x1, x2) + self.u_mixed(0, 2, x1, x2)
        fx = self.f(x1, x2)
        err = np.max(np.abs(fx + lap) / np.maximum(1.0, np.abs(fx)))
        if not err <= tol:
            raise NumericalError(
                f"problem {self.name!r} fails the -lap(u)=f spot check")


@dataclass
class CorrectionSpline:
    """Spline in the full space on a knot sequence, stored by B-spline
    coefficients; only the first and last p+1 coefficients are nonzero."""

    knots: KnotVector
    coeffs: np.ndarray

    def value(self, x, r=0):
        """Derivatives 0..r at points x, shape (r+1, len(x))."""
        return np.stack([b @ self.coeffs
                         for b in basis_samples(self.knots, x, r)])


def hermite_data_orders(p):
    """(even orders carrying data, odd orders forced to zero) per endpoint."""
    return (tuple(range(0, 2 * (p // 2) + 1, 2)),
            tuple(range(1, 2 * ((p - 1) // 2) + 2, 2)))


def hermite_correction_1d(spec: SpaceSpec, left_data, right_data) \
        -> CorrectionSpline:
    """Correction spline from even-derivative endpoint data.

    ``left_data``/``right_data`` hold the values for orders
    0, 2, ..., 2*floor(p/2) at x = 0 and x = 1.  The p+1 interpolation
    conditions per endpoint (data at even orders, zero at odd orders up to
    2*floor((p-1)/2)+1) determine the first and last p+1 B-spline
    coefficients through two unisolvent endpoint systems; the endpoint
    windows must not overlap (n_el > p + 1).
    """
    p, kv = spec.p, spec.knots
    if spec.n_el <= p + 1:
        raise ConfigError("correction needs n_el > p + 1")
    even, _ = hermite_data_orders(p)
    left_data = np.asarray(left_data, dtype=float)
    right_data = np.asarray(right_data, dtype=float)
    if left_data.shape != (len(even),) or right_data.shape != (len(even),):
        raise ConfigError("endpoint data must cover the even orders")
    coeffs = np.zeros(kv.num_basis)
    for x, data, sl in ((0.0, left_data, slice(0, p + 1)),
                        (1.0, right_data, slice(-(p + 1), None))):
        rhs = np.zeros(p + 1)
        rhs[list(even)] = data
        coeffs[sl] += _endpoint_solve(active_derivatives(kv, x), rhs)
    return CorrectionSpline(knots=kv, coeffs=coeffs)


def _endpoint_solve(a, rhs):
    """Solve one (p+1)-square endpoint system; a singular system raises
    NumericalError."""
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"endpoint system solve failed: {exc}") from exc


def hermite_data_from_problem(spec: SpaceSpec, prob: ManufacturedProblem1D):
    """Endpoint data arrays from f: order 0 is zero, order alpha is
    -f^{(alpha-2)} at the endpoint."""
    if prob.f_deriv is None:
        raise ConfigError("problem carries no derivative evaluators for f")
    even, _ = hermite_data_orders(spec.p)
    left = np.zeros(len(even))
    right = np.zeros(len(even))
    for k, a in enumerate(even):
        if a == 0:
            continue
        left[k] = -float(prob.f_deriv(a - 2, 0.0))
        right[k] = -float(prob.f_deriv(a - 2, 1.0))
    return left, right


@dataclass
class PoissonSolution1D:
    spec: SpaceSpec
    coeffs: np.ndarray
    correction: Optional[CorrectionSpline]
    err_l2: Optional[float]
    err_h1: Optional[float]


def solve_poisson_1d(spec: SpaceSpec, prob: ManufacturedProblem1D,
                     correct=False) -> PoissonSolution1D:
    """Galerkin solve of -u'' = f on the space, optionally corrected.

    With correction the discrete problem solves for u0 = u - s_u with the
    right-hand side (f, v) - (s_u', v') and the correction is added back
    for error evaluation.
    """
    if spec.bc != BoundaryType.DIRICHLET:
        raise ConfigError("poisson solves support Dirichlet boundaries only")
    s = assemble_stiffness(spec)
    bb = bspline_load(spec.knots, spec.breaks, prob.f)
    corr = None
    if correct:
        left, right = hermite_data_from_problem(spec, prob)
        corr = hermite_correction_1d(spec, left, right)
        bb = bb - _gram(spec, 1).matvec(corr.coeffs)
    coeffs = _solve_banded(s, spec.extraction @ bb, "stiffness")
    err_l2 = err_h1 = None
    if prob.u is not None:
        bc_total = spec.extraction.T @ coeffs
        if corr is not None:
            bc_total = bc_total + corr.coeffs
        err_l2, err_h1 = error_b_coefficients(
            spec.knots, spec.breaks, bc_total, prob.u, prob.u_d1)
    return PoissonSolution1D(spec=spec, coeffs=coeffs, correction=corr,
                             err_l2=err_l2, err_h1=err_h1)


def l2_projection(spec: SpaceSpec, f) -> np.ndarray:
    """Coefficients of the L2-orthogonal projection of f onto the space."""
    rhs = spec.extraction @ bspline_load(spec.knots, spec.breaks, f)
    return _solve_banded(assemble_mass(spec), rhs, "mass")


def ritz_projection(spec: SpaceSpec, f_d1) -> np.ndarray:
    """Coefficients of the H1-seminorm-best approximation (for spaces on
    which the stiffness is definite, i.e. Dirichlet-type)."""
    rhs = spec.extraction @ bspline_load(spec.knots, spec.breaks, f_d1, d=1)
    return _solve_banded(assemble_stiffness(spec), rhs, "stiffness")


def _gram(spec: SpaceSpec, d) -> SymBandMatrix:
    """Banded Gram matrix of the d-th derivatives of the spec's B-splines."""
    kv = spec.knots
    return SymBandMatrix(n=kv.num_basis, bandwidth=kv.p,
                         band=bspline_gram(kv, spec.breaks, d))


def _solve_banded(a: SymBandMatrix, rhs, what) -> np.ndarray:
    """Solve A x = rhs for symmetric positive definite banded A; non-finite
    data and factorization failures raise NumericalError."""
    _finite(rhs, f"{what} solve: right-hand side")
    try:
        x = scipy.linalg.solveh_banded(a.band, rhs, lower=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"{what} solve failed: {exc}") from exc
    return _finite(x, f"{what} solve: solution")


def _per_direction(spec1, spec2, build):
    """``build`` applied to both directions' spaces, once when they are
    the same space object."""
    first = build(spec1)
    return first, first if spec2 is spec1 else build(spec2)


# ---------------------------------------------------------------------------
# 2D: fast diagonalization and the Boolean-sum correction


def fast_diagonalization_solve(s1, m1, s2, m2, rhs):
    """Solve (S1 x M2 + M1 x S2) u = rhs through univariate eigenpairs.

    ``rhs`` and the result are (n1, n2) coefficient arrays.  The same
    pencil passed for both directions is solved once; a non-finite
    right-hand side or solution raises NumericalError.
    """
    _finite(rhs, "tensor solve: right-hand side")
    w1, v1 = generalized_eigen_sym(s1, m1)
    w2, v2 = (w1, v1) if s2 is s1 and m2 is m1 \
        else generalized_eigen_sym(s2, m2)
    den = w1[:, None] + w2[None, :]
    if np.any(np.abs(den) < 1e-12):
        raise NumericalError("singular tensor pencil (zero eigenvalue pair)")
    rhat = v1.T @ rhs @ v2
    return _finite(v1 @ (rhat / den) @ v2.T, "tensor solve: solution")


def _correction_data(spec: SpaceSpec, samples):
    """Per-direction data of the 2D correction: the endpoint systems at
    x = 0, 1, and (grid, solve) for least-squares fitting in the full
    spline space, where solve(values_on_grid) gives B-spline
    coefficients through the banded normal equations (bandwidth p).  The
    grid and its order-0 B-spline samples come from ``samples``, the
    direction's :func:`_quadrature_samples`."""
    kv = spec.knots
    xs, _, (b, *_) = samples
    g = b.T @ b
    gram = SymBandMatrix(n=kv.num_basis, bandwidth=kv.p, band=np.stack(
        [np.pad(g.diagonal(-k), (0, k)) for k in range(kv.p + 1)]))

    def solve(values):
        return _solve_banded(gram, b.T @ values, "trace fit")

    return {z: active_derivatives(kv, z) for z in (0.0, 1.0)}, xs, solve


def boundary_correction_2d(spec1: SpaceSpec, spec2: SpaceSpec,
                           prob: ManufacturedProblem2D) -> np.ndarray:
    """B-spline coefficient matrix of the Boolean-sum correction surface.

    Each direction contributes a Hermite endpoint correction whose
    transverse profile is the least-squares fit of the exact trace
    derivatives; the doubly-counted corner part (tensor Hermite of the
    corner derivative data) is subtracted.
    """
    return _boundary_correction_2d(
        spec1, spec2, prob,
        _per_direction(spec1, spec2, _quadrature_samples))


def _boundary_correction_2d(spec1, spec2, prob, samples):
    """:func:`boundary_correction_2d` on given quadrature ``samples``."""
    if prob.u_mixed is None:
        raise ConfigError("problem carries no mixed-derivative evaluators")
    p1, p2 = spec1.p, spec2.p
    if spec1.n_el <= p1 + 1 or spec2.n_el <= p2 + 1:
        raise ConfigError("correction needs n_el > p + 1 in each direction")
    kv1, kv2 = spec1.knots, spec2.knots
    even1, _ = hermite_data_orders(p1)
    even2, _ = hermite_data_orders(p2)
    blk1 = {0.0: slice(0, p1 + 1), 1.0: slice(kv1.num_basis - p1 - 1, None)}
    blk2 = {0.0: slice(0, p2 + 1), 1.0: slice(kv2.num_basis - p2 - 1, None)}
    # samples[1] is samples[0] when spec2 is spec1, so either index works
    (sys1, grid1, fit1), (sys2, grid2, fit2) = _per_direction(
        spec1, spec2, lambda sp: _correction_data(sp, samples[sp is spec2]))

    c = np.zeros((kv1.num_basis, kv2.num_basis))
    for z1 in (0.0, 1.0):
        rhs = np.zeros((p1 + 1, kv2.num_basis))
        for a in even1:
            if a == 0:
                continue
            rhs[a] = fit2(prob.u_mixed(a, 0, z1, grid2))
        c[blk1[z1], :] += _endpoint_solve(sys1[z1], rhs)
    for z2 in (0.0, 1.0):
        rhs = np.zeros((p2 + 1, kv1.num_basis))
        for a in even2:
            if a == 0:
                continue
            rhs[a] = fit1(prob.u_mixed(0, a, grid1, z2))
        c[:, blk2[z2]] += _endpoint_solve(sys2[z2], rhs).T
    for z1 in (0.0, 1.0):
        for z2 in (0.0, 1.0):
            corner = np.zeros((p1 + 1, p2 + 1))
            for a1 in even1:
                for a2 in even2:
                    if a1 == 0 or a2 == 0:
                        continue
                    corner[a1, a2] = float(prob.u_mixed(a1, a2, z1, z2))
            x = _endpoint_solve(sys1[z1], corner)
            d = _endpoint_solve(sys2[z2], x.T).T
            c[blk1[z1], blk2[z2]] -= d
    return c


def trace_from_f(prob: ManufacturedProblem2D, alpha, z, x2):
    """Even pure-normal trace derivative at an x1-boundary, derived from f.

    Implements the repeated-differentiation identity: for even alpha,
    the normal derivative of u on the edge x1 = z is a signed sum of mixed
    f derivatives (the trailing pure-tangential term of u vanishes on a
    homogeneous edge).  Requires ``f_mixed``.
    """
    if alpha % 2 != 0 or alpha < 2:
        raise ConfigError("the f-route covers even orders >= 2 only")
    if prob.f_mixed is None:
        raise ConfigError("problem carries no mixed-derivative data for f")
    x2 = np.asarray(x2, dtype=float)
    out = np.zeros_like(x2)
    for r in range(1, alpha // 2 + 1):
        out = out + (-1.0) ** r * prob.f_mixed(alpha - 2 * r, 2 * (r - 1),
                                               z, x2)
    return out


@dataclass
class PoissonSolution2D:
    spec1: SpaceSpec
    spec2: SpaceSpec
    coeffs: np.ndarray
    correction: Optional[np.ndarray]
    err_l2: Optional[float]
    err_h1: Optional[float]


def solve_poisson_2d(spec1: SpaceSpec, spec2: SpaceSpec,
                     prob: ManufacturedProblem2D, correct=False) \
        -> PoissonSolution2D:
    """Tensor-product Galerkin solve of -lap(u) = f, optionally corrected.

    Passing the same space object for both directions assembles, samples
    and solves it once.  The load and the L2/H1 error integrals use the
    p+3-point rule in each direction and run over blocks of ``ROW_BLOCK``
    x1 quadrature rows: f, u and the discrete solution are only ever
    sampled on one block of rows times the whole x2 grid.
    """
    if spec1.bc != BoundaryType.DIRICHLET \
            or spec2.bc != BoundaryType.DIRICHLET:
        raise ConfigError("poisson solves support Dirichlet boundaries only")
    (s1, m1), (s2, m2) = _per_direction(
        spec1, spec2, lambda sp: (assemble_stiffness(sp), assemble_mass(sp)))
    samples = _per_direction(spec1, spec2, _quadrature_samples)
    (xs1, ws1, phi1), (xs2, ws2, phi2) = samples
    blocks = [slice(lo, lo + ROW_BLOCK)
              for lo in range(0, xs1.size, ROW_BLOCK)]

    def on_block(fn, blk):
        """fn on the block's x1 rows times the x2 grid, stored (nq2, rows)
        so that the sparse products below take it without a copy."""
        return np.asarray(fn(xs1[None, blk], xs2[:, None]), dtype=float)

    def weights(blk):
        return ws2[:, None] * ws1[None, blk]

    bb = np.zeros((spec1.knots.num_basis, spec2.knots.num_basis))
    for blk in blocks:
        wf = weights(blk) * on_block(prob.f, blk)
        bb += phi1[0][blk].T @ (phi2[0].T @ wf).T

    corr = None
    if correct:
        corr = _boundary_correction_2d(spec1, spec2, prob, samples)
        (g1s, g1m), (g2s, g2m) = _per_direction(
            spec1, spec2, lambda sp: (_gram(sp, 1), _gram(sp, 0)))
        # G1 C G2 = (G2 (G1 C)^T)^T for symmetric G2
        bb = bb - (g2m.matvec(g1s.matvec(corr).T).T
                   + g2s.matvec(g1m.matvec(corr).T).T)

    rhs = spec1.extraction @ bb @ spec2.extraction.T
    u = fast_diagonalization_solve(s1, m1, s2, m2, rhs)

    err_l2 = err_h1 = None
    if prob.u is not None:
        ctot = spec1.extraction.T @ u @ spec2.extraction
        if corr is not None:
            ctot = ctot + corr

        def miss(fn, d, e, blk):
            """Exact minus discrete (d, e)-derivative on the block."""
            return on_block(fn, blk) - phi2[e] @ (phi1[d][blk] @ ctot).T

        err_l2 = _error_norm("L2", ((weights(blk), miss(prob.u, 0, 0, blk))
                                    for blk in blocks))
        if prob.u_x1 is not None and prob.u_x2 is not None:
            err_h1 = _error_norm("H1", ((weights(blk),
                                         miss(prob.u_x1, 1, 0, blk),
                                         miss(prob.u_x2, 0, 1, blk))
                                        for blk in blocks))
    return PoissonSolution2D(spec1=spec1, spec2=spec2, coeffs=u,
                             correction=corr, err_l2=err_l2, err_h1=err_h1)


def _quadrature_samples(spec: SpaceSpec):
    """p+3-point grid, weights and sampled B-splines (orders 0, 1)."""
    xs, ws = quadrature_grid(spec.breaks, spec.p + 3)
    return xs, ws, basis_samples(spec.knots, xs, 1)

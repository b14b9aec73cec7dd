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
In 2D the correction is the Boolean sum P1 + P2 - P1 P2 of the 1D
Hermite operators (Gordon, SIAM J. Numer. Anal. 8, 1971): P1 interpolates
the even normal-derivative traces on the edges x1 = 0, 1, fitted by least
squares in the x2 full spline space, P2 likewise across x2, and P1 P2
interpolates the corner jets in both directions.

Dirichlet boundaries only; the 2D solve runs through fast diagonalization
of the two univariate pencils.  The 2D load and error integrals run over
blocks of ``ROW_BLOCK`` x1 quadrature rows, so no full tensor grid of
samples is ever formed; within a block the samples are weighted, and the
residuals formed and squared, in place, with the weights applied per
axis, so no weight grid is formed either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import (SymBandMatrix, _band, _congruence, _element_grid,
                       _error_norm, _finite, _grid_errors, _grid_load,
                       _pencil, assemble_mass, assemble_stiffness,
                       bspline_gram, bspline_load, quadrature_grid)
from .eigensolve import generalized_eigen_sym
from .exceptions import ConfigError, NumericalError
from .spaces import BoundaryType, SpaceSpec, _fold, _unfold
from .splines import KnotVector, bspline_eval_batch, grid_samples

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

    def validate(self):
        """Spot-check -u'' = f at 20 fixed points, to 1e-8 relative."""
        if self.u is None or self.u_d1 is None:
            return
        x = np.random.default_rng(0).uniform(0.05, 0.95, 20)
        d = 1e-6
        upp = (self.u_d1(x + d) - self.u_d1(x - d)) / (2 * d)
        fx = self.f(x)
        err = np.max(np.abs(fx + upp) / np.maximum(1.0, np.abs(fx)))
        if not err <= 1e-8:
            raise NumericalError(
                f"problem {self.name!r} fails the -u''=f spot check ({err:.2e})")


@dataclass
class ManufacturedProblem2D:
    """Problem -(u_x1x1 + u_x2x2) = f on the unit square, u = 0 on the edge.

    ``u_mixed(a1, a2, x1, x2)`` evaluates mixed derivatives of u
    (broadcasting); it feeds the boundary correction traces.
    """

    name: str
    f: Callable
    u: Optional[Callable] = None
    u_x1: Optional[Callable] = None
    u_x2: Optional[Callable] = None
    u_mixed: Optional[Callable] = None

    def validate(self):
        """Spot-check -lap(u) = f at 20 fixed points, to 1e-10 relative."""
        if self.u_mixed is None:
            return
        rng = np.random.default_rng(0)
        x1 = rng.uniform(0.05, 0.95, 20)
        x2 = rng.uniform(0.05, 0.95, 20)
        lap = self.u_mixed(2, 0, x1, x2) + self.u_mixed(0, 2, x1, x2)
        fx = self.f(x1, x2)
        err = np.max(np.abs(fx + lap) / np.maximum(1.0, np.abs(fx)))
        if not err <= 1e-10:
            raise NumericalError(
                f"problem {self.name!r} fails the -lap(u)=f spot check")


def hermite_correction_1d(spec: SpaceSpec, left_data, right_data) \
        -> np.ndarray:
    """Full-space B-spline coefficients of the correction spline.

    ``left_data``/``right_data`` hold the values for orders
    0, 2, ..., 2*floor(p/2) at x = 0 and x = 1; see :func:`_hermite`.
    The endpoint windows must not overlap (n_el > p + 1).
    """
    p = spec.p
    if spec.n_el <= p + 1:
        raise ConfigError("correction needs n_el > p + 1")
    left = np.asarray(left_data, dtype=float)
    right = np.asarray(right_data, dtype=float)
    if left.shape != (p // 2 + 1,) or right.shape != (p // 2 + 1,):
        raise ConfigError("endpoint data must cover the even orders")
    return _hermite(spec.knots, left, right)


def _hermite(kv: KnotVector, left, right) -> np.ndarray:
    """Hermite endpoint interpolant in the full spline space on ``kv``.

    ``left``/``right`` hold data rows for the even orders
    0, 2, ..., 2*floor(p/2) at x = 0 and x = 1; any trailing axes carry
    through.  The p+1 conditions per endpoint (the data at even orders,
    zero at the odd orders up to p) fix the first and the last p+1
    B-spline coefficients through the two endpoint systems, both taken
    from one evaluation; the others are zero.  Returns the (num_basis, ...)
    coefficients.
    """
    p = kv.p
    systems = bspline_eval_batch(kv, p, [0.0, 1.0])[1]
    coeffs = np.zeros((kv.num_basis,) + left.shape[1:])
    for a, data, sl in ((systems[0], left, slice(0, p + 1)),
                        (systems[1], right, slice(-(p + 1), None))):
        rhs = np.zeros((p + 1,) + data.shape[1:])
        rhs[::2] = data
        coeffs[sl] = _endpoint_solve(a, rhs)
    return coeffs


def _endpoint_solve(a, rhs):
    """Solve one (p+1)-square endpoint system; a singular system raises
    NumericalError."""
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"endpoint system solve failed: {exc}") from exc


def _jet(p, shape, value):
    """Data rows of shape ``shape`` for the even orders 0, 2, ...,
    2*floor(p/2): zero at order 0, ``value(a)`` at order a."""
    jet = np.zeros((p // 2 + 1,) + shape)
    for a in range(2, p + 1, 2):
        jet[a // 2] = value(a)
    return jet


def hermite_data_from_problem(spec: SpaceSpec, prob: ManufacturedProblem1D):
    """Endpoint data arrays from f: order 0 is zero, order alpha is
    -f^{(alpha-2)} at the endpoint."""
    if prob.f_deriv is None:
        raise ConfigError("problem carries no derivative evaluators for f")
    return tuple(_jet(spec.p, (), lambda a: -float(prob.f_deriv(a - 2, z)))
                 for z in (0.0, 1.0))


@dataclass
class PoissonSolution1D:
    spec: SpaceSpec
    coeffs: np.ndarray
    correction: Optional[np.ndarray]
    err_l2: Optional[float]
    err_h1: Optional[float]


def solve_poisson_1d(spec: SpaceSpec, prob: ManufacturedProblem1D,
                     correct=False) -> PoissonSolution1D:
    """Galerkin solve of -u'' = f on the space, optionally corrected.

    With correction the discrete problem solves for u0 = u - s_u with the
    right-hand side (f, v) - (s_u', v') and the correction is added back
    for error evaluation.  One B-spline stiffness band serves both the
    reduced stiffness and the correction's product, and one p+3-point
    grid with its class tables serves the load and both error integrals.
    """
    if spec.bc != BoundaryType.DIRICHLET:
        raise ConfigError("poisson solves support Dirichlet boundaries only")
    kv = spec.knots
    g1 = bspline_gram(kv, spec.breaks, 1)
    grid = _element_grid(kv, spec.breaks, spec.p + 3,
                         int(prob.u is not None and prob.u_d1 is not None))
    bb = _grid_load(kv, grid, prob.f, 0)
    corr = None
    if correct:
        corr = hermite_correction_1d(
            spec, *hermite_data_from_problem(spec, prob))
        bb = bb - _band(spec, g1).matvec(corr)
    coeffs = _congruence(spec, g1).solve(_fold(spec, bb), "stiffness")
    err_l2 = err_h1 = None
    if prob.u is not None:
        bc_total = _unfold(spec, coeffs)
        if corr is not None:
            bc_total = bc_total + corr
        err_l2, err_h1 = _grid_errors(kv, grid, bc_total, prob.u,
                                      prob.u_d1)
    return PoissonSolution1D(spec=spec, coeffs=coeffs, correction=corr,
                             err_l2=err_l2, err_h1=err_h1)


def l2_projection(spec: SpaceSpec, f) -> np.ndarray:
    """Coefficients of the L2-orthogonal projection of f onto the space."""
    rhs = _fold(spec, bspline_load(spec.knots, spec.breaks, f))
    return assemble_mass(spec).solve(rhs, "mass")


def ritz_projection(spec: SpaceSpec, f_d1) -> np.ndarray:
    """Coefficients of the H1-seminorm-best approximation (for spaces on
    which the stiffness is definite, i.e. Dirichlet-type)."""
    rhs = _fold(spec, bspline_load(spec.knots, spec.breaks, f_d1, d=1))
    return assemble_stiffness(spec).solve(rhs, "stiffness")


def _per_direction(arg1, arg2, build):
    """``build`` applied to both directions' spaces (or their samples),
    once when they are the same object."""
    first = build(arg1)
    return first, first if arg2 is arg1 else build(arg2)


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


def _trace_fit(samples):
    """(grid, solve) for least-squares fitting in the full spline space:
    solve(values_on_grid) gives B-spline coefficients through the banded
    normal equations.  The grid and its order-0 B-spline samples come from
    ``samples``, the direction's :func:`_quadrature_samples`."""
    xs, _, (b, *_) = samples
    gram = SymBandMatrix.from_sparse(b.T @ b)

    def solve(values):
        return gram.solve(b.T @ values, "trace fit")

    return xs, solve


def _boundary_correction_2d(spec1, spec2, prob, samples):
    """B-spline coefficient matrix (nb1, nb2) of the Boolean-sum correction
    surface, with the traces fitted on the solve's quadrature ``samples``.

    (P1 + P2 - P1 P2) u = P1 T1 + P2 T2 - P2 K: T1 and T2 are the fitted
    trace jets on the x1- and x2-edges, and K the x2-jets on the x2-edges
    of P1 applied to the corner jets.
    """
    if prob.u_mixed is None:
        raise ConfigError("problem carries no mixed-derivative evaluators")
    p1, p2 = spec1.p, spec2.p
    if spec1.n_el <= p1 + 1 or spec2.n_el <= p2 + 1:
        raise ConfigError("correction needs n_el > p + 1 in each direction")
    kv1, kv2 = spec1.knots, spec2.knots
    (grid1, fit1), (grid2, fit2) = _per_direction(*samples, _trace_fit)

    def edges(p, shape, value):
        """Jets at z = 0 and z = 1, ``value(a, z)`` at order a."""
        return [_jet(p, shape, lambda a: value(a, z)) for z in (0.0, 1.0)]

    t1 = edges(p1, (kv2.num_basis,),
               lambda a, z: fit2(prob.u_mixed(a, 0, z, grid2)))
    t2 = edges(p2, (kv1.num_basis,),
               lambda a, z: fit1(prob.u_mixed(0, a, grid1, z)))
    # P1 of the corner jets, as x2-jets on the edges x2 = 0, 1
    k = [_hermite(kv1, *edges(
        p1, (p2 // 2 + 1,), lambda a1, z1: _jet(
            p2, (), lambda a2: prob.u_mixed(a1, a2, z1, z2)))).T
        for z2 in (0.0, 1.0)]
    return (_hermite(kv1, *t1) + _hermite(kv2, *t2).T
            - _hermite(kv2, *k).T)


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
    sampled on one block of rows times the whole x2 grid, and weighted,
    differenced and squared in place.
    """
    if spec1.bc != BoundaryType.DIRICHLET \
            or spec2.bc != BoundaryType.DIRICHLET:
        raise ConfigError("poisson solves support Dirichlet boundaries only")
    (s1, m1, g1s, g1m), (s2, m2, g2s, g2m) = _per_direction(
        spec1, spec2, _pencil)
    samples = _per_direction(spec1, spec2, _quadrature_samples)
    (xs1, ws1, phi1), (xs2, ws2, phi2) = samples
    blocks = [slice(lo, lo + ROW_BLOCK)
              for lo in range(0, xs1.size, ROW_BLOCK)]

    def on_block(fn, blk):
        """fn on the block's x1 rows times the x2 grid, stored (nq2, rows)
        so that the sparse products below take it without a copy, in a
        fresh array that the caller overwrites (a view or a broadcastable
        smaller result is copied out first)."""
        x1, x2 = xs1[None, blk], xs2[:, None]
        v = np.asarray(fn(x1, x2), dtype=float)
        if v.base is not None or v.shape != (x2.size, x1.size):
            v = np.array(np.broadcast_to(v, (x2.size, x1.size)))
        return v

    bb = np.zeros((spec1.knots.num_basis, spec2.knots.num_basis))
    for blk in blocks:
        wf = on_block(prob.f, blk)
        wf *= ws2[:, None]
        wf *= ws1[None, blk]
        bb += phi1[0][blk].T @ (phi2[0].T @ wf).T
        # free this block's samples before the next block forms its own
        del wf

    corr = None
    if correct:
        corr = _boundary_correction_2d(spec1, spec2, prob, samples)
        # G1 C G2 = (G2 (G1 C)^T)^T for symmetric G2
        bb = bb - (g2m.matvec(g1s.matvec(corr).T).T
                   + g2s.matvec(g1m.matvec(corr).T).T)

    rhs = _fold(spec2, _fold(spec1, bb).T).T
    u = fast_diagonalization_solve(s1, m1, s2, m2, rhs)

    err_l2 = err_h1 = None
    if prob.u is not None:
        ctot = _unfold(spec2, _unfold(spec1, u).T).T
        if corr is not None:
            ctot = ctot + corr

        def miss(fn, d, e, blk):
            """Exact minus discrete (d, e)-derivative on the block."""
            m = on_block(fn, blk)
            m -= phi2[e] @ (phi1[d][blk] @ ctot).T
            return m

        err_l2 = _error_norm("L2", (((ws2, ws1[blk]),
                                     miss(prob.u, 0, 0, blk))
                                    for blk in blocks))
        if prob.u_x1 is not None and prob.u_x2 is not None:
            err_h1 = _error_norm("H1", (((ws2, ws1[blk]),
                                         miss(prob.u_x1, 1, 0, blk),
                                         miss(prob.u_x2, 0, 1, blk))
                                        for blk in blocks))
    return PoissonSolution2D(spec1=spec1, spec2=spec2, coeffs=u,
                             correction=corr, err_l2=err_l2, err_h1=err_h1)


def _quadrature_samples(spec: SpaceSpec):
    """p+3-point grid, weights and sampled B-splines (orders 0, 1)."""
    xs, ws = quadrature_grid(spec.breaks, spec.p + 3)
    return xs, ws, grid_samples(spec.knots, spec.breaks, xs, 1)

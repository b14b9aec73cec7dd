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

Dirichlet boundaries only.  The 2D solve runs through fast
diagonalization of the two univariate pencils (Buzbee, Golub & Nielson,
SIAM J. Numer. Anal. 7, 1970).  A direction whose space passes the wave
certificate of :mod:`eigenspline.spectrum` has sampled sine waves as
eigenvectors, so it takes the certificate's eigenvalues and amplitudes
and applies the waves as sine transforms by the real FFT: no eigensolve
and no n x n matrix.  Full spaces and uncertified waves take the dense
eigensolver.  A source given as separable terms, f = sum_k a_k(x1)
b_k(x2), gets its load by sum factorisation (Antolin, Buffa, Calabro,
Martinelli & Sangalli, CMAME 285, 2015), two 1D loads per term.
Otherwise the load, and always the L2/H1 error integrals (whose separable
expansion would cancel), run over blocks of ``ROW_BLOCK`` x1 quadrature
rows, so no full tensor grid of samples is ever formed; within a block
the samples are weighted, and the residuals formed and squared, in
place, with the weights applied per axis, so no weight grid is formed
either.
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
from .spaces import (BoundaryType, SpaceKind, SpaceSpec, _fold,
                     _fold_centres, _layout_params, _unfold)
from .spectrum import _certified_waves
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
        x = _spot_points()[0]
        d = 1e-6
        upp = (self.u_d1(x + d) - self.u_d1(x - d)) / (2 * d)
        _spot_check(self.name, "-u''=f", self.f(x), -upp, 1e-8)


@dataclass
class ManufacturedProblem2D:
    """Problem -(u_x1x1 + u_x2x2) = f on the unit square, u = 0 on the edge.

    ``u_mixed(a1, a2, x1, x2)`` evaluates mixed derivatives of u
    (broadcasting); it feeds the boundary correction traces.  ``factors``,
    when given, lists 1D callable pairs (a_k, b_k) with f(x1, x2) =
    sum_k a_k(x1) b_k(x2); the load is then taken by sum factorisation.
    """

    name: str
    f: Callable
    u: Optional[Callable] = None
    u_x1: Optional[Callable] = None
    u_x2: Optional[Callable] = None
    u_mixed: Optional[Callable] = None
    factors: Optional[list] = None

    def validate(self):
        """Spot-check -lap(u) = f, and f = sum_k a_k b_k when factors are
        given, at 20 fixed points, each to 1e-10 relative."""
        self._check_factors()
        if self.u_mixed is not None:
            x1, x2 = _spot_points()
            lap = self.u_mixed(2, 0, x1, x2) + self.u_mixed(0, 2, x1, x2)
            _spot_check(self.name, "-lap(u)=f", self.f(x1, x2), -lap, 1e-10)

    def _check_factors(self):
        """The factor half of :meth:`validate`."""
        if self.factors is None:
            return
        if not self.factors:
            raise ConfigError(f"problem {self.name!r} lists no factors")
        x1, x2 = _spot_points()
        _spot_check(self.name, "f = sum a_k b_k", self.f(x1, x2),
                    sum(a(x1) * b(x2) for a, b in self.factors), 1e-10)


def _spot_points():
    """The 20 fixed spot points of each direction."""
    rng = np.random.default_rng(0)
    return rng.uniform(0.05, 0.95, 20), rng.uniform(0.05, 0.95, 20)


def _spot_check(name, what, fx, gx, tol):
    """NumericalError unless |f - g| <= tol max(1, |f|) at every spot
    point; NaN fails."""
    err = np.max(np.abs(fx - gx) / np.maximum(1.0, np.abs(fx)))
    if not err <= tol:
        raise NumericalError(
            f"problem {name!r} fails the {what} spot check ({err:.2e})")


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

    ``rhs`` and the result are (n1, n2) coefficient arrays.  Both pencils
    take the dense eigensolver, the same pencil passed for both directions
    once; a non-finite right-hand side or solution raises NumericalError.
    """
    modes1 = _dense_modes(s1, m1)
    modes2 = modes1 if s2 is s1 and m2 is m1 else _dense_modes(s2, m2)
    return _tensor_solve(modes1, modes2, rhs)


def _tensor_solve(modes1, modes2, rhs):
    """u = V1 ((V1^T rhs V2) / (w1_i + w2_j)) V2^T from the two directions'
    (eigenvalues, V^T, V) of :func:`_modes`; a non-finite right-hand side
    or solution, or a zero eigenvalue sum, raises NumericalError."""
    _finite(rhs, "tensor solve: right-hand side")
    (w1, to1, from1), (w2, to2, from2) = modes1, modes2
    den = w1[:, None] + w2[None, :]
    if np.any(np.abs(den) < 1e-12):
        raise NumericalError("singular tensor pencil (zero eigenvalue pair)")
    rhat = to2(to1(rhs, 0), 1)
    return _finite(from2(from1(rhat / den, 0), 1), "tensor solve: solution")


def _modes(spec: SpaceSpec, s, m):
    """(eigenvalues, to_modes, from_modes) of a Dirichlet direction's
    pencil S, M, with V its M-orthonormal eigenvectors: to_modes(x, axis)
    applies V^T along an axis of a 2D array (x V along axis 1) and
    from_modes(y, axis) applies V (y V^T along axis 1).

    Certified waves (:func:`spectrum._certified_waves`) have V_il = nu_l
    sin(pi l z_i / den) on the fold's integer centres z_i, so both
    products are sine sums (:func:`_sine_sums`) with the certificate's
    eigenvalues and amplitudes nu; full spaces and uncertified waves take
    the dense eigensolver (:func:`_dense_modes`).
    """
    waves = spec.kind != SpaceKind.FULL and _certified_waves(spec, s, m)
    if not waves:
        return _dense_modes(s, m)
    lam, nu = waves
    den, sigma, _ = _layout_params(spec.kind, spec.p, spec.n, spec.bc)
    z = _fold_centres(spec.p, den, sigma, spec.bc)
    # the centres are every other integer in (0, den), so they and the
    # mode numbers are slices; optimal centres are even (den = 2n + 2),
    # and halving them and den halves the transforms
    half = 2 - z[0] % 2
    den //= half
    z = slice(z[0] // half, z[-1] // half + 1, 2 // half)
    l = slice(1, spec.n + 1)
    scale = (nu[:, None], nu)

    def to_modes(x, axis):
        return _sine_sums(x, axis, z, l, den) * scale[axis]

    def from_modes(y, axis):
        return _sine_sums(y * scale[axis], axis, l, z, den)

    return lam, to_modes, from_modes


def _dense_modes(s, m):
    """:func:`_modes` of the pencil from the dense eigensolver."""
    w, v = generalized_eigen_sym(s, m)
    return (w, lambda x, axis: v.T @ x if axis == 0 else x @ v,
            lambda y, axis: v @ y if axis == 0 else y @ v.T)


def _sine_sums(x, axis, src, dst, den):
    """sum_j x_j sin(pi src_j dst_k / den) along ``axis`` of a 2D array,
    for integer positions src and dst in [0, den], given as slices.

    The entries are scattered onto a length-2 den grid at src; minus the
    imaginary part of its real FFT is the sum at every integer dst.  With
    src the fold centres and dst the mode numbers, or the reverse, this is
    DST-I on optimal Dirichlet spaces (centres i, den = n + 1, once
    halved) and DST-II, or back DST-III, on reduced ones (centres 2i - 1,
    den = 2n).
    """
    rows = x.T if axis == 0 else x
    grid = np.zeros((rows.shape[0], 2 * den))
    grid[:, src] = rows
    out = -np.fft.rfft(grid)[:, dst].imag
    return out.T if axis == 0 else out


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
    p+3-point rule in each direction.  A problem with ``factors`` takes
    its load as sum_k (Phi1^T W1 a_k)(Phi2^T W2 b_k)^T; otherwise the
    load, and always the error integrals, run over blocks of
    ``ROW_BLOCK`` x1 quadrature rows: f, u and the discrete solution are
    only ever sampled on one block of rows times the whole x2 grid, and
    weighted, differenced and squared in place.  Each direction is solved
    in its modes (:func:`_modes`).
    """
    if spec1.bc != BoundaryType.DIRICHLET \
            or spec2.bc != BoundaryType.DIRICHLET:
        raise ConfigError("poisson solves support Dirichlet boundaries only")
    (g1s, g1m, modes1), (g2s, g2m, modes2) = _per_direction(
        spec1, spec2, _direction)
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

    if prob.factors is not None:
        prob._check_factors()
        bb = _factored_load(prob.factors, samples)
    else:
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
    u = _tensor_solve(modes1, modes2, rhs)

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


def _direction(spec: SpaceSpec):
    """(G1, G0, modes) of a direction: the B-spline Gram bands of the
    correction load and the :func:`_modes` of the space's pencil."""
    s, m, g1, g0 = _pencil(spec)
    return g1, g0, _modes(spec, s, m)


def _factored_load(factors, samples):
    """sum_k (Phi1^T W1 a_k)(Phi2^T W2 b_k)^T: the B-spline load of f =
    sum_k a_k(x1) b_k(x2), one 1D load per factor on each direction's
    quadrature ``samples``."""
    (xs1, ws1, phi1), (xs2, ws2, phi2) = samples
    a = np.column_stack([ws1 * a_k(xs1) for a_k, _ in factors])
    b = np.column_stack([ws2 * b_k(xs2) for _, b_k in factors])
    return (phi1[0].T @ a) @ (phi2[0].T @ b).T


def _quadrature_samples(spec: SpaceSpec):
    """p+3-point grid, weights and sampled B-splines (orders 0, 1)."""
    xs, ws = quadrature_grid(spec.breaks, spec.p + 3)
    return xs, ws, grid_samples(spec.knots, spec.breaks, xs, 1)

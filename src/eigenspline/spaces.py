"""Spline space constructions: full spaces and outlier-free subspaces.

A space is described by a :class:`SpaceSpec`: degree p, dimension n,
boundary type, and one of three kinds.

* ``FULL`` - the complete spline space on open uniform knots, with the
  boundary B-splines dropped as the boundary type requires.
* ``OPTIMAL`` - the dimension-n subspace on the shifted uniform grids whose
  basis functions satisfy extra even/odd derivative constraints at the
  endpoints; these match the spectral n-width bounds and carry no spurious
  high-frequency modes.
* ``REDUCED_UNIFORM`` - the even-degree variant on the plain uniform grid
  (Dirichlet only, constraints up to order p-1); for odd degree it
  coincides with ``OPTIMAL`` and is rejected.

Each reduced basis function is stored as one row of an extraction matrix
over the n_el + p B-splines of the knot sequence.  The basis is local, so
the extraction is a ``scipy.sparse.csr_array`` built straight from its
blocks and never held dense: a unit entry per kept B-spline for full
spaces; for Dirichlet-type constraints the identity plus the corner
columns of the closed-form two-block reflection tiling; for the Neumann
and mixed types the orthonormal null spaces of the endpoint constraint
functionals around an interior identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np
import scipy.sparse
from scipy.linalg import null_space

from .exceptions import ConfigError
from .splines import KnotVector, active_derivatives, basis_samples

MIN_ELEMENTS = 3


class BoundaryType(IntEnum):
    DIRICHLET = 0
    NEUMANN = 1
    MIXED = 2


class SpaceKind(str, Enum):
    FULL = "full"
    OPTIMAL = "optimal"
    REDUCED_UNIFORM = "reduced"


def optimal_breaks(p, n, bc) -> np.ndarray:
    """Break sequence of the dimension-n optimal subspace.

    The interior breakpoints sit on a uniform grid whose spacing and
    half-step shift depend on the boundary type and the parity of p:

    =========  ==========  =======================================
    boundary   spacing h   interior breaks
    =========  ==========  =======================================
    Dirichlet  1/(n+1)     k*h (p odd) or (k - 1/2)*h (p even)
    Neumann    1/n         (k - 1/2)*h (p odd) or k*h (p even)
    mixed      2/(2n+1)    k*h (p odd) or (k - 1/2)*h (p even)
    =========  ==========  =======================================
    """
    if n < 1:
        raise ConfigError("dimension must be >= 1")
    den, sigma, n_el = _layout_params(p, n, bc)
    return _uniform_layout(p, n_el, den, sigma)[1]


def _layout_params(p, n, bc):
    # Interior breakpoints are (2k - sigma)/den; element width 2/den.
    bc = BoundaryType(bc)
    if bc == BoundaryType.DIRICHLET:
        den, sigma, n_el = 2 * (n + 1), p % 2 == 0, n + 1 + (p % 2 == 0)
    elif bc == BoundaryType.NEUMANN:
        den, sigma, n_el = 2 * n, p % 2 == 1, n + (p % 2 == 1)
    else:
        den, sigma, n_el = 2 * n + 1, p % 2 == 0, n + 1
    return den, int(sigma), n_el


def _uniform_layout(p, n_el, den, sigma, clip=False):
    """Knot vector and breaks with knots (2k - sigma)/den, k = -p..n_el+p.

    The optimal layouts take den and sigma from :func:`_layout_params`;
    the plain uniform grid is den = 2 n_el, sigma = 0, and the open
    uniform (full-space) sequence is that grid clipped to [0, 1].
    """
    knots = (2 * np.arange(-p, n_el + p + 1) - sigma) / den
    if clip:
        knots = np.clip(knots, 0.0, 1.0)
    kv = KnotVector(p=p, n_el=n_el, values=knots)
    breaks = np.concatenate(([0.0], knots[p + 1:p + n_el], [1.0]))
    return kv, breaks


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """Fully constructed spline space (build with :func:`make_space`).

    ``extraction`` is the (n, n_el + p) ``csr_array`` whose row i holds
    the B-spline coefficients of basis function i.  Specs compare and hash
    by identity, so two builds of one space are unequal objects.
    """

    kind: SpaceKind
    p: int
    n: int
    bc: BoundaryType
    n_el: int
    h: float
    breaks: np.ndarray = field(repr=False)
    knots: KnotVector = field(repr=False)
    extraction: scipy.sparse.csr_array = field(repr=False)


def make_space(kind, p, n, bc) -> SpaceSpec:
    """Construct a space of the given kind, degree, dimension and boundary.

    Rejects inconsistent combinations (odd-degree or non-Dirichlet
    ReducedUniform, dimensions that leave fewer than three elements).
    """
    kind = SpaceKind(kind)
    bc = BoundaryType(bc)
    if p < 1:
        raise ConfigError("degree must be >= 1")
    if n < 1:
        raise ConfigError("dimension must be >= 1")

    if kind == SpaceKind.FULL:
        drop = {BoundaryType.DIRICHLET: 2, BoundaryType.NEUMANN: 0,
                BoundaryType.MIXED: 1}[bc]
        n_el = n - p + drop
        if n_el < MIN_ELEMENTS:
            raise ConfigError("dimension too small for this degree")
        kv, breaks = _uniform_layout(p, n_el, 2 * n_el, 0, clip=True)
        h = 1.0 / n_el
        extraction = _selection_extraction(n_el, p, bc)
    elif kind == SpaceKind.REDUCED_UNIFORM:
        if p % 2 == 1:
            raise ConfigError(
                "odd-degree reduced-uniform space coincides with the "
                "optimal one; build that instead")
        if bc != BoundaryType.DIRICHLET:
            raise ConfigError("reduced-uniform spaces are Dirichlet only")
        n_el = n
        # The periodic tiling stays well formed down to two elements, and
        # the two-element space is a meaningful smallest instance, so the
        # usual three-element floor is relaxed here.
        if n_el < 2:
            raise ConfigError("dimension too small")
        kv, breaks = _uniform_layout(p, n_el, 2 * n_el, 0)
        h = 1.0 / n_el
        extraction = _tiled_extraction(n, p // 2, reduced=True)
    else:
        den, sigma, n_el = _layout_params(p, n, bc)
        kv, breaks = _uniform_layout(p, n_el, den, sigma)
        if n_el < MIN_ELEMENTS:
            raise ConfigError("dimension too small for this degree")
        h = 2.0 / den
        if bc == BoundaryType.DIRICHLET:
            keep = (p + 1) // 2 if p % 2 == 1 else p // 2 + 1
            extraction = _tiled_extraction(n, keep, reduced=False)
        else:
            extraction = _nullspace_extraction(kv, *constrained_orders(
                SpaceKind.OPTIMAL, p, bc))

    if extraction.shape != (n, kv.num_basis):
        raise ConfigError("extraction construction lost rank")
    return SpaceSpec(kind=kind, p=p, n=n, bc=bc, n_el=n_el, h=h,
                     breaks=breaks, knots=kv, extraction=extraction)


def constrained_orders(kind, p, bc):
    """Derivative orders forced to vanish at each endpoint (left, right).

    Dirichlet constrains the even orders, Neumann the odd ones, mixed is
    Dirichlet-like at 0 and Neumann-like at 1.  Full spaces constrain only
    what their dropped boundary functions encode and are not handled here.
    """
    kind = SpaceKind(kind)
    bc = BoundaryType(bc)
    top = p - 1 if kind == SpaceKind.REDUCED_UNIFORM else p
    even = tuple(range(0, top + 1, 2))
    odd = tuple(range(1, top + 1, 2))
    if bc == BoundaryType.DIRICHLET:
        return even, even
    if bc == BoundaryType.NEUMANN:
        return odd, odd
    return even, odd


def _tiled_extraction(m, keep, reduced):
    """Extraction from the periodic two-block reflection pattern.

    The m-row pattern repeats with period 2m (reduced) or 2m + 2, built
    from an identity block and a negated exchange block (with separating
    zero columns in the non-reduced case).  ``keep`` columns are taken on
    each side of a central identity, counting outward: left neighbours read
    the left block from its right edge, right neighbours read the right
    block from its left edge.  Every pattern column has at most one
    nonzero, so each block is held as (row, sign) per column, and the
    matrix is the identity plus the 2 * keep read columns as COO triplets,
    the zero gap entries dropped.
    """
    up = np.arange(m)
    one = np.ones(m)
    gap = np.zeros(0 if reduced else 1, dtype=np.intp)
    bl = np.r_[up, gap, up[::-1], gap], np.r_[one, gap, -one, gap]
    br = np.r_[gap, up[::-1], gap, up], np.r_[gap, -one, gap, one]
    period = bl[0].size
    j = np.arange(1, keep + 1)
    left = period - 1 - ((j[::-1] - 1) % period)
    right = (j - 1) % period
    rows = np.r_[up, bl[0][left], br[0][right]]
    cols = np.r_[keep + up, j - 1, keep + m + j - 1]
    vals = np.r_[one, bl[1][left], br[1][right]]
    nz = vals != 0.0
    return scipy.sparse.coo_array((vals[nz], (rows[nz], cols[nz])),
                                  shape=(m, m + 2 * keep)).tocsr()


def _selection_extraction(n_el, p, bc):
    """One unit entry per B-spline the boundary type keeps."""
    nb = n_el + p
    lo = 0 if bc == BoundaryType.NEUMANN else 1
    hi = nb - 1 if bc == BoundaryType.DIRICHLET else nb
    return scipy.sparse.eye_array(hi - lo, nb, k=lo, format="csr")


def _equilibrate(rows):
    # Unit row norms keep the SVD from trading accuracy in the small-scale
    # constraints (order 0) against the huge high-order derivative rows.
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _nullspace_extraction(kv, left_orders, right_orders):
    """Orthonormal basis of the constrained subspace, one row per function.

    When the endpoint windows are disjoint the two (p+1)-column systems are
    solved separately and the matrix is the block diagonal of their null
    spaces around the identity on the untouched interior B-splines;
    otherwise one global null space is taken.
    """
    p, n_el, nb = kv.p, kv.n_el, kv.num_basis
    cl = _equilibrate(active_derivatives(kv, 0.0)[list(left_orders)])
    cr = _equilibrate(active_derivatives(kv, 1.0)[list(right_orders)])
    if n_el > p + 1:
        kl = null_space(cl).T
        kr = null_space(cr).T
        if kl.shape[0] != p + 1 - len(left_orders) \
                or kr.shape[0] != p + 1 - len(right_orders):
            raise ConfigError("endpoint constraints are rank deficient")
        return scipy.sparse.block_diag(
            (kl, scipy.sparse.eye_array(n_el - p - 2), kr), format="csr")
    cglob = np.zeros((len(left_orders) + len(right_orders), nb))
    cglob[:len(left_orders), :p + 1] = cl
    cglob[len(left_orders):, nb - p - 1:] = cr
    rows = null_space(cglob).T
    if rows.shape[0] != nb - cglob.shape[0]:
        raise ConfigError("endpoint constraints are rank deficient")
    return scipy.sparse.csr_array(rows)


def reduced_basis_matrix(spec: SpaceSpec, xs, r=0) -> np.ndarray:
    """Derivatives 0..r of the reduced basis at many points: (r+1, nq, n)."""
    return np.stack([(b @ spec.extraction.T).toarray()
                     for b in basis_samples(spec.knots, xs, r)])


def boundary_residuals(spec: SpaceSpec) -> float:
    """Worst normalized violation of the space's endpoint constraints.

    For every constrained derivative order the largest magnitude over the
    basis at the endpoint is divided by the largest magnitude of that
    derivative order over the element midpoints; the maximum ratio over
    all constrained (endpoint, order) pairs is returned.  Full spaces have
    no constraint set in this sense and are rejected.
    """
    if spec.kind == SpaceKind.FULL:
        raise ConfigError("full spaces carry no endpoint constraint set")
    left_orders, right_orders = constrained_orders(spec.kind, spec.p, spec.bc)
    mids = 0.5 * (spec.breaks[:-1] + spec.breaks[1:])
    interior = reduced_basis_matrix(spec, mids, r=spec.p)
    scale = np.max(np.abs(interior), axis=(1, 2))
    at0, at1 = np.abs(reduced_basis_matrix(spec, [0.0, 1.0], r=spec.p)) \
        .max(axis=2).T
    worst = 0.0
    for a in left_orders:
        worst = max(worst, at0[a] / scale[a])
    for a in right_orders:
        worst = max(worst, at1[a] / scale[a])
    return worst

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

Each reduced basis function is a combination of the n_el + p B-splines of
the knot sequence, and in every space the combination is a signed
assignment: each B-spline lands in at most one basis function, with
coefficient +1 or -1.  A spec stores it as two arrays over the
B-splines, ``rows`` (the basis function, -1 when the B-spline is dropped)
and ``signs`` (+1.0 or -1.0, 0.0 when dropped).  Full spaces keep a run of
consecutive B-splines; every optimal and reduced space is one integer
reflection fold.  Those spaces are the restrictions to [0, 1] of the
splines on their symmetric knot sequence that are odd about a Dirichlet
end and even about a Neumann end, so each B-spline adds +1 or -1 to the
row of the basis function centred where it folds to.  The extraction E
(row i holding the B-spline coefficients of basis function i) is never
stored: E x is a sum of the signed entries onto their rows
(:func:`_fold`), E^T y a signed gather (:func:`_unfold`), and
``spec.extraction`` builds E as a sparse matrix only when asked for.  In
that basis the sampled waves sin(omega c_i) (cos for Neumann), c_i the
row centres of :func:`_wave_centres`, are the discrete eigenvectors, and
since the fold signs are the wave's odd and even reflections, E^T v of
such a wave v is the same wave sampled at every B-spline centre, those
outside [0, 1] included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np
import scipy.sparse

from .exceptions import ConfigError
from .splines import KnotVector, _uniform_knots, basis_samples

MIN_ELEMENTS = 3
# Loads and errors on a space integrate with the (p+3)-point Gauss rule,
# whose size :mod:`eigenspline.assembly` caps at MAX_DEGREE + 3.
MAX_DEGREE = 29


class BoundaryType(IntEnum):
    DIRICHLET = 0
    NEUMANN = 1
    MIXED = 2


class SpaceKind(str, Enum):
    FULL = "full"
    OPTIMAL = "optimal"
    REDUCED_UNIFORM = "reduced"


def _layout_params(kind, p, n, bc):
    """(den, sigma, n_el) of a dimension-n optimal or reduced space.

    Interior breakpoints are (2k - sigma)/den, element width h = 2/den.
    The reduced-uniform grid is the plain one, den = 2n, with n elements.
    On the optimal subspaces the spacing and half-step shift depend on
    the boundary type and the parity of p:

    =========  ==========  =======================================
    boundary   spacing h   interior breaks
    =========  ==========  =======================================
    Dirichlet  1/(n+1)     k*h (p odd) or (k - 1/2)*h (p even)
    Neumann    1/n         (k - 1/2)*h (p odd) or k*h (p even)
    mixed      2/(2n+1)    k*h (p odd) or (k - 1/2)*h (p even)
    =========  ==========  =======================================
    """
    bc = BoundaryType(bc)
    if SpaceKind(kind) == SpaceKind.REDUCED_UNIFORM:
        den, sigma, n_el = 2 * n, 0, n
    elif bc == BoundaryType.DIRICHLET:
        den, sigma, n_el = 2 * (n + 1), p % 2 == 0, n + 1 + (p % 2 == 0)
    elif bc == BoundaryType.NEUMANN:
        den, sigma, n_el = 2 * n, p % 2 == 1, n + (p % 2 == 1)
    else:
        den, sigma, n_el = 2 * n + 1, p % 2 == 0, n + 1
    return den, int(sigma), n_el


def _uniform_layout(p, n_el, den, sigma, clip=False):
    """Knot vector and breaks with knots (2k - sigma)/den, k = -p..n_el+p.

    The optimal and reduced layouts take den and sigma from
    :func:`_layout_params` (the reduced one is the plain uniform grid,
    den = 2 n_el, sigma = 0); the open uniform (full-space) sequence is
    the plain grid clipped to [0, 1].
    """
    knots = _uniform_knots(p, n_el, den, sigma, clip)
    kv = KnotVector(p=p, n_el=n_el, values=knots)
    breaks = np.concatenate(([0.0], knots[p + 1:p + n_el], [1.0]))
    return kv, breaks


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """Fully constructed spline space (build with :func:`make_space`).

    B-spline j of the knots adds ``signs[j]`` (+1 or -1) to basis function
    ``rows[j]``, or is dropped (row -1, sign 0).  Specs compare and hash
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
    rows: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    @property
    def extraction(self) -> scipy.sparse.csr_array:
        """The (n, n_el + p) extraction whose row i holds the B-spline
        coefficients of basis function i, built from ``rows`` and
        ``signs`` on each access."""
        keep = np.flatnonzero(self.rows >= 0)
        return scipy.sparse.csr_array(
            (self.signs[keep], (self.rows[keep], keep)),
            shape=(self.n, self.rows.size))


def make_space(kind, p, n, bc) -> SpaceSpec:
    """Construct a space of the given kind, degree, dimension and boundary.

    Rejects inconsistent combinations (odd-degree or non-Dirichlet
    ReducedUniform, dimensions that leave fewer than three elements) and
    degrees above ``MAX_DEGREE``.
    """
    kind = SpaceKind(kind)
    bc = BoundaryType(bc)
    if p < 1:
        raise ConfigError("degree must be >= 1")
    if p > MAX_DEGREE:
        raise ConfigError(f"degree must be <= {MAX_DEGREE}")
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
        rows, signs = _selection(kv.num_basis, bc)
    else:
        reduced = kind == SpaceKind.REDUCED_UNIFORM
        if reduced and p % 2 == 1:
            raise ConfigError(
                "odd-degree reduced-uniform space coincides with the "
                "optimal one; build that instead")
        if reduced and bc != BoundaryType.DIRICHLET:
            raise ConfigError("reduced-uniform spaces are Dirichlet only")
        den, sigma, n_el = _layout_params(kind, p, n, bc)
        # The reduced fold stays well formed down to two elements, and the
        # two-element space is a meaningful smallest instance, so the usual
        # three-element floor is relaxed there.
        if n_el < (2 if reduced else MIN_ELEMENTS):
            raise ConfigError("dimension too small for this degree")
        kv, breaks = _uniform_layout(p, n_el, den, sigma)
        h = 2.0 / den
        rows, signs = _fold_assignment(p, kv.num_basis, den, sigma, bc)

    if rows.max() + 1 != n:
        raise ConfigError("extraction construction lost rank")
    return SpaceSpec(kind=kind, p=p, n=n, bc=bc, n_el=n_el, h=h,
                     breaks=breaks, knots=kv, rows=rows, signs=signs)


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


def _selection(nb, bc):
    """(rows, signs) keeping the consecutive B-splines the boundary type
    keeps: the first is dropped at a Dirichlet left end (Dirichlet and
    mixed), the last at a Dirichlet right end."""
    lo = 0 if bc == BoundaryType.NEUMANN else 1
    hi = nb - 1 if bc == BoundaryType.DIRICHLET else nb
    rows = np.arange(nb) - lo
    keep = (rows >= 0) & (rows < hi - lo)
    return np.where(keep, rows, -1), keep.astype(float)


def _fold_assignment(p, nb, den, sigma, bc):
    """(rows, signs) of a constrained space by reflecting its B-splines.

    The space is the restriction to [0, 1] of the splines on the symmetric
    knot sequence that are odd about a Dirichlet end and even about a
    Neumann end.  B-spline j's centre is z = 2j - p + 1 - sigma in units
    of 1/den; written z = 2 den q + m, it folds onto m, or onto 2 den - m
    with one more reflection at the right end when m > den, and carries
    the sign (s0 s1)^q (times s1 after that reflection), s being -1 at a
    Dirichlet end and +1 at a Neumann end.  Each B-spline adds its sign to
    the row of its folded centre; rows ascend in centre, and a centre that
    folds onto an odd end is dropped.
    """
    s0, s1 = _end_signs(bc)
    centres = _fold_centres(p, den, sigma, bc)
    q, m = np.divmod(2 * np.arange(nb) - p + 1 - sigma, 2 * den)
    back = m > den
    centre = np.where(back, 2 * den - m, m)
    sign = np.where(q % 2 == 0, 1.0, s0 * s1) * np.where(back, s1, 1.0)
    row = np.searchsorted(centres, centre)
    keep = row < centres.size
    keep[keep] = centres[row[keep]] == centre[keep]
    return np.where(keep, row, -1), np.where(keep, sign, 0.0)


def _fold(spec: SpaceSpec, x) -> np.ndarray:
    """E x for the extraction E: the B-spline entries x[j] (along the
    first axis) with their signs, summed onto their rows in ascending j,
    the order of the sparse product, so that the sums match it bitwise.
    Infinite entries of opposite signs meeting on a row give NaN without
    a warning; the solves' finiteness checks raise."""
    x = np.asarray(x, dtype=float)
    keep = spec.rows >= 0
    out = np.zeros((spec.n,) + x.shape[1:])
    with np.errstate(invalid="ignore"):
        np.add.at(out, spec.rows[keep], x[keep]
                  * spec.signs[keep].reshape((-1,) + (1,) * (x.ndim - 1)))
    return out


def _unfold(spec: SpaceSpec, y) -> np.ndarray:
    """E^T y for the extraction E: each B-spline's basis coefficient (along
    the first axis) times its sign, zero for a dropped B-spline."""
    y = np.asarray(y, dtype=float)
    keep = spec.rows >= 0
    out = np.zeros((spec.rows.size,) + y.shape[1:])
    out[keep] = y[spec.rows[keep]] \
        * spec.signs[keep].reshape((-1,) + (1,) * (y.ndim - 1))
    return out


def _end_signs(bc):
    """Reflection signs (s0, s1) at x = 0 and x = 1: -1 odd, +1 even."""
    bc = BoundaryType(bc)
    return (1 if bc == BoundaryType.NEUMANN else -1,
            -1 if bc == BoundaryType.DIRICHLET else 1)


def _fold_centres(p, den, sigma, bc):
    """Integer centres (units of 1/den) of the fold rows, ascending: every
    centre in [0, den] of the B-splines' parity, odd ends excluded."""
    s0, s1 = _end_signs(bc)
    c = np.arange((1 - p - sigma) % 2, den + 1, 2)
    return c[((c != 0) | (s0 > 0)) & ((c != den) | (s1 > 0))]


def _wave_centres(spec: SpaceSpec) -> np.ndarray:
    """Row centres c_i in [0, 1] of an optimal or reduced space's fold."""
    den, sigma, _ = _layout_params(spec.kind, spec.p, spec.n, spec.bc)
    return _fold_centres(spec.p, den, sigma, spec.bc) / den


def reduced_basis_matrix(spec: SpaceSpec, xs, r=0) -> np.ndarray:
    """Derivatives 0..r of the reduced basis at many points: (r+1, nq, n)."""
    return np.stack([_fold(spec, b.T.toarray()).T
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

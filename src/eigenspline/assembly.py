"""Galerkin assembly on spline spaces.

Gram matrices use the p+1-point Gauss-Legendre rule on every element,
which makes the spline-spline integrands exact; loads and error
functionals use p+3 points.  Elements are the knot spans intersected with
[0, 1] (equivalently, consecutive breakpoints).  Every grid takes its
B-spline values from one table per element class
(:mod:`eigenspline.splines`; on knots without a uniform layout every
element is a class of its own), built once per grid by
:func:`_element_grid`: the Gram bands form one (p+1)^2 block per class
and add the blocks of all elements into packed symmetric band storage
with one ``bincount``; a load contracts each element's f w with its class
table and adds the p+1 entries of all elements onto the B-splines with
one ``bincount``; an error integral takes the discrete function at each
element's points as its p+1 gathered coefficients times its class table.
Neither forms a sample matrix.  A space's matrices are
congruences of those banded B-spline Gram matrices under the space's
signed assignment of B-splines to basis functions
(:mod:`eigenspline.spaces`): a slice of the band for full spaces, whose
assignment keeps consecutive B-splines, and for fold spaces the band's
signed entries scattered into the rows they fold onto, so neither a dense
n x n matrix nor a sparse one is formed; loads and coefficient maps go
through the same assignment.  A spectrum takes its stiffness and mass
from one table of the B-splines.  The direct quadrature route over the
reduced basis exists in the test suite as an independent oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from .exceptions import ConfigError, NumericalError
from .spaces import MAX_DEGREE, SpaceKind, SpaceSpec, _fold, _unfold
from .splines import (KnotVector, _class_tables, _classes, _layout,
                      find_spans)

MAX_GAUSS = MAX_DEGREE + 3


def gauss_legendre(m):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1],
    fresh copies of the rule computed once per m."""
    if not 1 <= m <= MAX_GAUSS:
        raise ConfigError("gauss rule size out of range")
    x, w = _leggauss(m)
    return x.copy(), w.copy()


@functools.cache
def _leggauss(m):
    return np.polynomial.legendre.leggauss(m)


def quadrature_grid(breaks, m):
    """Mapped Gauss points and weights over all elements, concatenated."""
    x, w = gauss_legendre(m)
    a = np.asarray(breaks[:-1], dtype=float)
    b = np.asarray(breaks[1:], dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


class _Grid(NamedTuple):
    """An m-point grid over breaks with one B-spline table per element
    class (:func:`_element_grid`)."""

    xs: np.ndarray          # points, element after element
    ws: np.ndarray          # their weights
    lo: np.ndarray          # column of each element's first active B-spline
    cls: np.ndarray         # class of each element
    reps: np.ndarray        # first element of each class
    tables: np.ndarray      # (r+1, classes, m, p+1) class tables
    layout: Optional[tuple]  # the knots' layout when the breaks have classes


def _element_grid(knots: KnotVector, breaks, m, r) -> _Grid:
    """The m-point grid over ``breaks`` and derivatives 0..r of the p+1
    B-splines active on each class representative at its points, from
    one run of the Cox-de Boor triangle.

    The classes are those of ``splines._classes``; knots or breaks without
    classes take every element as its own class.  Element e's active
    B-splines are columns lo[e], ..., lo[e] + p, read off its first point.
    """
    breaks = np.asarray(breaks, dtype=float)
    n_el = breaks.size - 1
    layout = _layout(knots)
    classes = _classes(knots, breaks, layout)
    cls, reps = classes or (np.arange(n_el),) * 2
    xs, ws = quadrature_grid(breaks, m)
    lo = find_spans(knots, xs[::m])
    tables = _class_tables(knots, lo[reps], xs.reshape(n_el, m)[reps], r)
    return _Grid(xs, ws, lo, cls, reps, tables,
                 None if classes is None else layout)


def _class_products(tables, reps, rows):
    """rows[e] @ tables[c] for every element e of class c, as one
    (elements, l) array from (elements, k) rows and (classes, k, l) tables.

    A class is the run of consecutive elements from reps[c] on: the
    classes of several elements take one product each, the others one
    batched product together.  Non-finite or overflowing data propagate
    without a warning; the callers' finiteness checks raise."""
    n = rows.shape[0]
    size = np.diff(reps, append=n)
    single = size == 1
    out = np.empty((n, tables.shape[2]))
    with np.errstate(over="ignore", invalid="ignore"):
        out[reps[single]] = np.einsum("ck,ckl->cl", rows[reps[single]],
                                      tables[single])
        for c in np.flatnonzero(~single):
            run = slice(reps[c], reps[c] + size[c])
            out[run] = rows[run] @ tables[c]
    return out


@dataclass
class SymBandMatrix:
    """Symmetric banded matrix in packed lower form.

    ``band[d, j] == A[j + d, j]`` for 0 <= d <= bandwidth (entries running
    past the matrix edge are zero), the layout accepted by scipy's
    symmetric banded solvers.  Only this class and the congruence that
    scatters into it touch that layout; the trace fit's normal equations
    convert through :meth:`from_sparse`, and products go through
    :meth:`to_sparse`.
    """

    n: int
    bandwidth: int
    band: np.ndarray

    @classmethod
    def from_sparse(cls, a):
        """Band the lower triangle of the symmetric sparse matrix ``a``;
        exact zeros are dropped, and the bandwidth is read from the rest."""
        a = scipy.sparse.csr_array(a)
        a.sum_duplicates()
        a = a.tocoo()
        keep = (a.row >= a.col) & (a.data != 0)
        offs, cols = a.row[keep] - a.col[keep], a.col[keep]
        bw = int(offs.max()) if offs.size else 0
        band = np.zeros((bw + 1, a.shape[0]))
        band[offs, cols] = a.data[keep]
        return cls(n=a.shape[0], bandwidth=bw, band=band)

    def to_sparse(self):
        """Diagonal-format copy of the matrix, built per call, diagonals
        0, -1, 1, ..., -bandwidth, bandwidth: scipy adds them into each
        product entry in that order, the order of a loop over the
        diagonals, so products match that loop bitwise (up to zero signs).
        """
        n, bw = self.n, self.bandwidth
        d = np.arange(1, bw + 1)
        off = np.zeros(2 * bw + 1, dtype=np.int32)
        off[1::2], off[2::2] = -d, d
        # column j of diagonal off holds A[j - off, j]; lower diagonals
        # read band[d] as stored, upper ones shifted right by d
        data = np.zeros((2 * bw + 1, n))
        data[0] = self.band[0]
        data[1::2] = self.band[1:]
        for k in d:
            data[2 * k, k:] = self.band[k, :n - k]
        return scipy.sparse.dia_array((data, off), shape=(n, n))

    def to_dense(self):
        """The dense n x n matrix, each diagonal copied from the band."""
        n = self.n
        out = np.zeros((n, n))
        flat = out.reshape(-1)
        for d in range(self.bandwidth + 1):
            # flat indices d n + j (n + 1) of A[j + d, j], d + j (n + 1) of
            # A[j, j + d]
            diag = self.band[d, :n - d]
            flat[d * n::n + 1][:n - d] = diag
            flat[d::n + 1][:n - d] = diag
        return out

    def matvec(self, x):
        """A @ x for a vector or an (n, k) block, in O(bandwidth * n * k)."""
        return self.to_sparse() @ np.asarray(x, dtype=float)

    def mirror_halves(self):
        """Even and odd halves of the mirror-symmetrised matrix
        A' = (A + J A J) / 2, J the reversal of the index order.

        With n = 2k or 2k + 1 and A11, A12 the leading k rows' blocks, the
        halves are A11 + A12 J and A11 - A12 J, where A12 J is nonzero only
        in the last ``bandwidth`` rows and columns; for odd n the middle
        row and column of A' join the even half, off the diagonal scaled
        by sqrt(2).  An eigenvector y of the even half is [y; Jy] / sqrt(2)
        of A' (the middle entry of odd n unscaled), one of the odd half
        [y; -Jy] / sqrt(2) (middle entry zero).  Returns (even, odd), of
        sizes ceil(n/2) and floor(n/2) and of this bandwidth (or less when
        a half is narrower), read from the band in O(n * bandwidth).
        """
        n, bw, band = self.n, self.bandwidth, self.band
        k = n // 2
        # A'[j + d, j] averages A[j + d, j] = band[d, j] with its mirror
        # A[n-1-j, n-1-j-d] = band[d, n-1-d-j]
        sym = np.zeros_like(band)
        for d in range(bw + 1):
            row = band[d, :n - d]
            sym[d, :n - d] = 0.5 * (row + row[::-1])
        halves = []
        for sign, size in ((1.0, n - k), (-1.0, k)):
            hbw = min(bw, max(size - 1, 0))
            half = sym[:hbw + 1, :size].copy()
            for d in range(1, hbw + 1):
                half[d, size - d:] = 0.0
            for d in range(hbw + 1):
                # (A12 J)[j + d, j] = A'[j + d, n-1-j] = A'[n-1-j-d, j],
                # within the band for the last rows j + d <= k - 1
                j = np.arange(max(0, (n - d - bw) // 2), k - d)
                half[d, j] += sign * sym[n - 1 - 2 * j - d, j]
            if size > k:
                # the middle row of odd n: row k, columns k - d
                d = np.arange(1, hbw + 1)
                half[d, k - d] *= np.sqrt(2.0)
            halves.append(SymBandMatrix(n=size, bandwidth=hbw, band=half))
        return tuple(halves)

    def solve(self, rhs, what):
        """x with A x = rhs for positive definite A.  Non-finite data and
        factorization failures raise NumericalError naming ``what``."""
        _finite(rhs, f"{what} solve: right-hand side")
        try:
            x = scipy.linalg.solveh_banded(self.band, rhs, lower=True)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NumericalError(f"{what} solve failed: {exc}") from exc
        return _finite(x, f"{what} solve: solution")


def bspline_gram(knots: KnotVector, breaks, d):
    """Gram matrix of the d-th derivatives of all B-splines on the knots.

    Integration runs over [0, 1] only, with the p+1-point rule, which is
    exact for the piecewise-polynomial integrand.  Returns the packed
    lower band of shape (p+1, nb), ``band[k, j] == G[j + k, j]`` (the
    :class:`SymBandMatrix` layout with bandwidth p, nb = n_el + p).
    """
    if not 0 <= d <= knots.p:
        raise ConfigError("derivative order out of range")
    return _gram_bands(knots, breaks, (d,))[0]


def _gram_bands(knots: KnotVector, breaks, orders):
    """Bands of :func:`bspline_gram` for each derivative order in
    ``orders``, from one evaluation of the B-splines on the p+1-point grid
    of one element per class.

    The members of a class of ``splines._classes`` share their
    representative's (p+1)^2 element block, so the interior diagonals are
    exactly constant; knots or breaks without classes take every element
    as its own class.  Each band entry adds its elements' block entries in
    ascending element order from 0.0, in one ``bincount``.  On a layout
    whose knots mirror about x = 1/2 the right half of each diagonal is
    the mirror of its left half, as in exact arithmetic, so the band is
    exactly mirror-symmetric.  The order-d values of a higher-order
    evaluation are those of an order-d one, bit for bit, so each band is
    the one that :func:`bspline_gram` returns for d."""
    p = knots.p
    nb = knots.num_basis
    g = _element_grid(knots, breaks, p + 1, max(orders))
    n_el, lo, cls, layout = g.lo.size, g.lo, g.cls, g.layout
    ws = g.ws.reshape(n_el, -1)[g.reps]
    # block entry (a + k, a) of element e lands on band[k, lo[e] + a]; in
    # k ascending, a descending, e ascending each entry's elements arrive
    # in ascending order
    k, a = np.array([(k, a) for k in range(p + 1)
                     for a in range(p - k, -1, -1)]).T
    target = ((k * nb + a)[:, None] + lo).ravel()
    # x -> 1 - x maps knot (2k - sigma)/den onto knot n_el - k when
    # den = 2 (n_el - sigma)
    mirrored = layout is not None and n_el == knots.n_el \
        and layout[0] == 2 * (n_el - layout[1])
    bands = []
    for d in orders:
        vals = g.tables[d]
        blocks = np.einsum("cqa,cqb,cq->cab", vals, vals, ws)
        band = np.bincount(target, weights=blocks[:, a + k, a][cls].T.ravel(),
                           minlength=(p + 1) * nb).reshape(p + 1, nb)
        if mirrored:
            for j in range(p + 1):
                row = band[j, :nb - j]
                half = row.size // 2
                row[row.size - half:] = row[:half][::-1]
        bands.append(band)
    return bands


def _band(spec: SpaceSpec, band) -> SymBandMatrix:
    """A B-spline Gram band of the spec's knots (:func:`bspline_gram`) as
    a banded matrix."""
    return SymBandMatrix(n=spec.knots.num_basis, bandwidth=spec.p, band=band)


def _congruence(spec: SpaceSpec, gram) -> SymBandMatrix:
    """E G E^T of the B-spline Gram band ``gram`` under the extraction E.

    A full space keeps the consecutive B-splines from the one on row 0 on,
    so its product is that slice of the band, with the entries that run
    past the matrix edge zeroed.  On a fold, B-splines a and b on rows r_a
    and r_b add s_a s_b G_ab to A[r_a, r_b] and A[r_b, r_a]: one entry of
    the lower band, twice on the diagonal when a != b share a row.  The
    entries are summed in ascending diagonal of G, then column, so the
    result is exactly symmetric; its bandwidth is that of its last
    nonzero diagonal."""
    n, p = spec.n, spec.p
    if spec.kind == SpaceKind.FULL:
        lo = int(np.argmax(spec.rows == 0))
        band = gram[:, lo:lo + n].copy()
        for d in range(1, p + 1):
            band[d, n - d:] = 0.0
        return SymBandMatrix(n=n, bandwidth=p, band=band)
    nb = spec.knots.num_basis
    rows, signs = spec.rows, spec.signs
    # G[b + d, b] = gram[d, b], d ascending, then b
    d, b = np.nonzero(np.arange(nb) < nb - np.arange(p + 1)[:, None])
    ra, rb = rows[b + d], rows[b]
    keep = (ra >= 0) & (rb >= 0)
    d, b, ra, rb = d[keep], b[keep], ra[keep], rb[keep]
    vals = gram[d, b] * (signs[b + d] * signs[b])
    vals[(ra == rb) & (d > 0)] *= 2.0
    off = np.abs(ra - rb)
    band = np.bincount(off * n + np.minimum(ra, rb), weights=vals,
                       minlength=(p + 1) * n).reshape(p + 1, n)
    used = np.flatnonzero(band.any(axis=1))
    bw = int(used[-1]) if used.size else 0
    return SymBandMatrix(n=n, bandwidth=bw, band=band[:bw + 1])


def _pencil(spec: SpaceSpec):
    """(S, M, G1, G0): :func:`assemble_stiffness`, :func:`assemble_mass`
    and the B-spline Gram matrices they are congruences of, from one
    evaluation of the B-splines."""
    g1, g0 = _gram_bands(spec.knots, spec.breaks, (1, 0))
    return _congruence(spec, g1), _congruence(spec, g0), \
        _band(spec, g1), _band(spec, g0)


def assemble_mass(spec: SpaceSpec) -> SymBandMatrix:
    """L2 Gram matrix of the reduced basis over [0, 1]."""
    return _congruence(spec, bspline_gram(spec.knots, spec.breaks, 0))


def assemble_stiffness(spec: SpaceSpec) -> SymBandMatrix:
    """H1-seminorm Gram matrix of the reduced basis over [0, 1]."""
    return _congruence(spec, bspline_gram(spec.knots, spec.breaks, 1))


def assemble_load(spec: SpaceSpec, f) -> np.ndarray:
    """Load vector (f, phi_i) with the p+3-point rule."""
    return _fold(spec, bspline_load(spec.knots, spec.breaks, f))


def bspline_load(knots: KnotVector, breaks, f, d=0):
    """Load vector of f against the d-th derivatives of all B-splines,
    with the p+3-point rule."""
    return _grid_load(knots, _element_grid(knots, breaks, knots.p + 3, d),
                      f, d)


def _grid_load(knots: KnotVector, g: _Grid, f, d):
    """:func:`bspline_load` on the grid ``g``: each element contracts its
    f w with its class table, and one ``bincount`` adds the elements' p+1
    entries onto the B-splines, in ascending element order."""
    fw = np.asarray(f(g.xs), dtype=float) * g.ws
    loc = _class_products(g.tables[d], g.reps, fw.reshape(g.lo.size, -1))
    cols = g.lo[:, None] + np.arange(knots.p + 1)
    return np.bincount(cols.ravel(), weights=loc.ravel(),
                       minlength=knots.num_basis)


def error_b_coefficients(knots: KnotVector, breaks, bcoeffs, exact,
                         exact_d1=None):
    """L2 and H1-seminorm errors of a spline given by B-spline coefficients,
    with the p+3-point rule.

    Returns (err_l2, err_h1); err_h1 is None when no derivative of the
    target is supplied.
    """
    if np.shape(bcoeffs) != (knots.num_basis,):
        raise ConfigError("coefficient vector has wrong length")
    g = _element_grid(knots, breaks, knots.p + 3, int(exact_d1 is not None))
    return _grid_errors(knots, g, bcoeffs, exact, exact_d1)


def _grid_errors(knots: KnotVector, g: _Grid, bcoeffs, exact, exact_d1):
    """:func:`error_b_coefficients` on the grid ``g``: the spline's order-d
    values on each element are its p+1 gathered coefficients times the
    transposed class table."""
    local = np.asarray(bcoeffs, dtype=float)[
        g.lo[:, None] + np.arange(knots.p + 1)]

    def miss(fn, d):
        """Exact minus discrete d-th derivative at the grid points."""
        h = _class_products(g.tables[d].transpose(0, 2, 1), g.reps, local)
        return np.asarray(fn(g.xs), dtype=float) - h.ravel()

    err_l2 = _error_norm("L2", [(g.ws, miss(exact, 0))])
    if exact_d1 is None:
        return err_l2, None
    return err_l2, _error_norm("H1", [(g.ws, miss(exact_d1, 1))])


def _error_norm(what, blocks):
    """sqrt of the quadrature sum of w * (d_1**2 + d_2**2 + ...).

    ``blocks`` yields one ``(w, d_1, d_2, ...)`` tuple per block of
    quadrature points: the weights and the error samples there, which are
    squared and added in place.  Samples on a line take their weight
    vector as ``np.sum(w * sq)``; (nq2, rows) samples on a tensor grid
    take the pair ``w = (w2, w1)`` of their axes' weights as
    ``einsum("qr,q->r", sq, w2) @ w1``, so no weight grid is formed.  Each
    block's sum is added to a running total, so a caller bounds its
    working memory by its block size, and a single block of line samples
    sums exactly as one ``np.sum`` over all points.  The blocks are
    consumed (and a generator's samples computed) under ``np.errstate``: a
    total that overflows (a huge error squared) or is otherwise not finite
    raises NumericalError instead of warning.
    """
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for w, *diffs in blocks:
            sq = diffs[0]
            sq *= sq
            for k in range(1, len(diffs)):
                diffs[k] *= diffs[k]
                sq += diffs[k]
            if isinstance(w, tuple):
                total += np.einsum("qr,q->r", sq, w[0]) @ w[1]
            else:
                total += np.sum(w * sq)
            # free this block's samples before the next block forms its own
            del sq, diffs
        total = np.sqrt(total)
    return float(_finite(total, f"{what} error integral"))


def _finite(x, what):
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{what} is not finite")
    return x


def function_error(spec: SpaceSpec, coeffs, exact, exact_d1=None):
    """Errors of a reduced-space function against a target on [0, 1]."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (spec.n,):
        raise ConfigError("coefficient vector has wrong length")
    bcoeffs = _unfold(spec, coeffs)
    return error_b_coefficients(spec.knots, spec.breaks, bcoeffs, exact,
                                exact_d1)

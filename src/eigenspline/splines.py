"""B-spline primitives on uniformly structured knot sequences.

``cardinal_bspline`` evaluates the degree-p cardinal B-spline (supported
on [0, p+1], unit integral) through the two-term degree-raising
recurrence, and at the integers as the Eulerian numbers over p!.
``bspline_eval_batch`` evaluates, at many points of [0, 1], the p+1
B-splines of a knot sequence that are active at each point, together with
derivatives up to a requested order, via the Cox-de Boor triangle; the
Hermite endpoint systems, the first and the last p+1 B-splines' derivatives
0..p at x = 0 and x = 1, come from one call.  Sampled
consumers reach it through two views: ``basis_samples``, the sparse
points x B-splines sample matrices that reduced-basis samples are
products with, and ``grid_samples``, the same matrices on a quadrature
grid (the 2D Poisson load, error integrals and trace fits, the sampled
error pass).  This module alone decides which elements of a grid are
translates of each other (``_classes``, on the uniform layouts of
``_layout``); ``_class_tables`` evaluates one table per class, which
``grid_samples`` broadcasts, and which the Gram bands, the 1D loads and
error integrals of :mod:`eigenspline.assembly` and the closed-form error
pass of :mod:`eigenspline.spectrum` contract as is.  On other knots and
breaks ``grid_samples`` evaluates point by point and the assembly takes
each element as its own class; arbitrary points are evaluated point by
point.  Point evaluation is
right-continuous at knots; x = 1 takes left limits so the last element is
closed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, factorial

import numpy as np
import scipy.sparse

from .exceptions import ConfigError


def cardinal_bspline(p, t):
    """Value of the degree-p cardinal B-spline at t (scalar or array).

    The degree-0 spline is the indicator of [0, 1), which fixes the
    right-continuous convention for every degree; the support is exactly
    [0, p+1].  At an integer t = j + 1 the value is A(p, j) / p!, the
    Eulerian number rounded once, where the recurrence would round at
    every step.
    """
    if p < 0:
        raise ConfigError("degree must be >= 0")
    t = np.asarray(t, dtype=float)
    vals = [np.where((t - j >= 0.0) & (t - j < 1.0), 1.0, 0.0)
            for j in range(p + 1)]
    for k in range(1, p + 1):
        for j in range(p - k + 1):
            s = t - j
            vals[j] = (s / k) * vals[j] + ((k + 1 - s) / k) * vals[j + 1]
    out = vals[0]
    if p:
        exact = np.array([0.0] + [a / factorial(p) for a in _eulerian(p)]
                         + [0.0])
        whole = (t == np.floor(t)) & (t >= 0.0) & (t <= p + 1)
        out = np.where(whole, exact[np.where(whole, t, 0.0).astype(np.intp)],
                       out)
    return float(out) if out.ndim == 0 else out


@functools.cache
def _eulerian(q):
    """The Eulerian numbers A(q, 0), ..., A(q, q-1) of q >= 1, as exact
    integers: q! N_q(j + 1) = A(q, j) for the cardinal B-spline N_q."""
    # A(r, j) = (r - j) A(r - 1, j - 1) + (j + 1) A(r - 1, j)
    euler = [1]
    for r in range(2, q + 1):
        euler = [(r - j) * a + (j + 1) * b for j, (a, b)
                 in enumerate(zip([0] + euler, euler + [0]))]
    return tuple(euler)


def cardinal_bspline_derivative(p, r, t):
    """r-th derivative of the degree-p cardinal B-spline at t.

    Uses the difference identity relating the derivative to two shifted
    splines of degree p-1, applied r times.  Right-continuous at knots;
    r = p (piecewise constant result) is allowed, r > p is rejected.
    """
    if p < 0:
        raise ConfigError("degree must be >= 0")
    if not 0 <= r <= p:
        raise ConfigError("derivative order must satisfy 0 <= r <= p")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for k in range(r + 1):
        out = out + ((-1) ** k * comb(r, k)) * cardinal_bspline(p - r, t - k)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class KnotVector:
    """Knot sequence xi_{-p}, ..., xi_{n_el+p} for splines on [0, 1].

    ``values[i + p]`` holds xi_i.  The sequence is nondecreasing, strictly
    increasing across xi_1, ..., xi_{n_el-1}, and positioned so that
    xi_0 <= 0 < xi_1 and xi_{n_el-1} < 1 <= xi_{n_el}; knots outside [0, 1]
    carry no quadrature elements but shape the boundary B-splines.
    """

    p: int
    n_el: int
    values: np.ndarray

    def __post_init__(self):
        if self.p < 0:
            raise ConfigError("degree must be >= 0")
        if self.n_el < 1:
            raise ConfigError("need at least one element")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.n_el + 2 * self.p + 1,):
            raise ConfigError("knot sequence has wrong length")
        if np.any(np.diff(vals) < 0):
            raise ConfigError("knots must be nondecreasing")
        interior = vals[self.p + 1:self.p + self.n_el]
        if interior.size and np.any(np.diff(interior) <= 0):
            raise ConfigError("interior knots must be strictly increasing")
        if not (self.knot(0) <= 0.0 < self.knot(1)):
            raise ConfigError("knots misplaced at the left end")
        if not (self.knot(self.n_el - 1) < 1.0 <= self.knot(self.n_el)):
            raise ConfigError("knots misplaced at the right end")

    def knot(self, i):
        """xi_i for -p <= i <= n_el + p."""
        return float(self.values[i + self.p])

    @property
    def num_basis(self):
        """Number of B-splines N_{-p}, ..., N_{n_el-1} on the sequence."""
        return self.n_el + self.p


def find_spans(kv: KnotVector, xs):
    """Element index mu with xi_mu <= x < xi_{mu+1} for each x in [0, 1].

    x values equal to xi_{n_el} (when that knot is 1) are assigned to the
    last element, which realizes the left-limit convention at x = 1.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise ConfigError("evaluation points must lie in [0, 1]")
    interior = kv.values[kv.p:kv.p + kv.n_el + 1]
    mu = np.searchsorted(interior, xs, side="right") - 1
    return np.clip(mu, 0, kv.n_el - 1).astype(np.intp)


def bspline_eval_batch(kv: KnotVector, r, xs):
    """Evaluate active B-splines and derivatives at many points.

    Returns (spans, values) with values of shape (len(xs), r+1, p+1); the
    B-splines active at xs[q] are numbers spans[q]-p, ..., spans[q].
    """
    if not 0 <= r <= kv.p:
        raise ConfigError("derivative order must satisfy 0 <= r <= p")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    spans = find_spans(kv, xs)
    return spans, np.moveaxis(_ders_basis(kv, spans, xs, r), -1, 0)


def basis_samples(kv: KnotVector, xs, r):
    """Sampled B-spline basis: derivatives 0..r of all B-splines at xs.

    Returns r+1 ``csr_array`` matrices of shape (len(xs), num_basis); row q
    of matrix d holds the d-th derivatives of the p+1 B-splines active at
    xs[q] (array columns spans[q], ..., spans[q] + p) and nothing else.
    """
    spans, vals = bspline_eval_batch(kv, r, xs)
    return _sample_matrices(kv, spans, np.moveaxis(vals, 1, 0))


def grid_samples(kv: KnotVector, breaks, xs, r):
    """:func:`basis_samples` at a quadrature grid, one table per element
    class.

    ``xs`` holds the same m points of a rule mapped onto every element of
    ``breaks``, element after element (the grid that
    ``assembly.quadrature_grid`` returns).  The members of a class of
    :func:`_classes` see the same p+1 B-spline pieces at the same local
    points, so the table of each class's representative
    (:func:`_class_tables`) is broadcast to the others.  It differs from
    the per-point values by the rounding of the local coordinate, about
    eps/h of each column's maximum.  Knots or breaks without classes take
    :func:`basis_samples` at every point.
    """
    breaks = np.asarray(breaks, dtype=float)
    return _grid_samples(kv, xs, r, _classes(kv, breaks, _layout(kv)))


def _grid_samples(kv: KnotVector, xs, r, classes):
    """:func:`grid_samples` with the grid's element ``classes`` (the
    result of :func:`_classes`, possibly None) already decided."""
    xs = np.asarray(xs, dtype=float)
    if classes is None:
        return basis_samples(kv, xs, r)
    cls, reps = classes
    grid = xs.reshape(cls.size, -1)
    data = np.take(_class_tables(kv, reps, grid[reps], r), cls, axis=1)
    return _sample_matrices(kv, np.repeat(np.arange(cls.size), grid.shape[1]),
                            data.reshape(r + 1, xs.size, -1))


def _sample_matrices(kv, spans, data):
    """One ``csr_array`` per order from ``data[d]``, (points, p+1) values
    of the B-splines spans[q], ..., spans[q] + p at point q."""
    w = kv.p + 1
    cols = (spans[:, None] + np.arange(w)).ravel()
    indptr = np.arange(0, spans.size * w + 1, w)
    shape = (spans.size, kv.num_basis)
    return [scipy.sparse.csr_array((v.ravel(), cols, indptr), shape=shape)
            for v in data]


def _uniform_knots(p, n_el, den, sigma, clip):
    """Knots (2k - sigma)/den, k = -p..n_el+p, clipped to [0, 1] when
    ``clip``: the uniform layouts of :mod:`eigenspline.spaces`."""
    knots = (2 * np.arange(-p, n_el + p + 1) - sigma) / den
    return np.clip(knots, 0.0, 1.0) if clip else knots


def _layout(kv: KnotVector):
    """(den, sigma, clip) of knots that are exactly those of
    :func:`_uniform_knots`, or None.

    The candidate integers are read off xi_0 = -sigma/den and xi_1 =
    (2 - sigma)/den, which clipping leaves alone, and accepted only when
    they rebuild every knot bit for bit."""
    p, t = kv.p, kv.values
    ratio = 2.0 / (t[p + 1] - t[p])
    if not ratio < 2.0 ** 52:
        return None
    den = round(ratio)
    sigma = round(-t[p] * den)
    clip = bool(t[0] >= 0.0)
    if den < 1 or sigma not in (0, 1) or not (
            _uniform_knots(p, kv.n_el, den, sigma, clip) == t).all():
        return None
    return den, sigma, clip


def _classes(kv: KnotVector, breaks, layout):
    """(cls, reps): the class cls[e] of each element e of ``breaks`` and
    the first element reps[c] of each class, or None when ``layout`` (the
    knots' :func:`_layout`) is None or the breaks are not its elements from
    x = 0 on (the whole of [0, 1] or a left part).

    Element e lies in span e.  It is generic when it fills the span (a
    shifted layout cuts its end elements short) and, on a clipped layout,
    when none of the knots xi_{e-p}, ..., xi_{e+p+1} it depends on is
    clipped: (2(e-p) - sigma)/den >= 0 and (2(e+p+1) - sigma)/den <= 1.
    The generic elements are translates of each other and form one class,
    represented by the one nearest x = 0, where the local coordinate
    rounds least; every other element is a class of its own.  Each class
    is a run of consecutive elements, so cls is nondecreasing."""
    k = breaks.size - 1
    if layout is None or not 1 <= k <= kv.n_el:
        return None
    p, t = kv.p, kv.values
    if not (breaks[0] == 0.0 and (breaks[1:k] == t[p + 1:p + k]).all()
            and breaks[k] == (1.0 if k == kv.n_el else t[p + k])):
        return None
    den, sigma, clip = layout
    # only the end elements of [0, 1] can be cut
    lo = int(t[p] != 0.0)
    hi = k - int(k == kv.n_el and t[p + k] != 1.0)
    if clip:
        lo = max(lo, p + (sigma + 1) // 2)
        hi = min(hi, (den + sigma) // 2 - p)
    # the generic elements lo, ..., hi-1 join class lo
    e = np.arange(k)
    cls = np.minimum(e, lo) + np.maximum(e - max(hi, lo + 1) + 1, 0)
    return cls, np.flatnonzero(np.diff(cls, prepend=-1))


def _class_tables(kv: KnotVector, reps, pts, r):
    """Derivatives 0..r of the p+1 B-splines active on each element
    reps[c] at its points pts[c], as one contiguous (r+1, classes, points,
    p+1) array, from one run of the Cox-de Boor triangle."""
    m = pts.shape[1]
    vals = _ders_basis(kv, np.repeat(reps, m), pts.ravel(), r)
    return np.ascontiguousarray(
        vals.reshape(r + 1, kv.p + 1, reps.size, m).transpose(0, 2, 3, 1))


def _ders_basis(kv, spans, xs, r):
    # Cox-de Boor triangle with the derivative pass of the classical
    # ders-basis-funs algorithm, vectorized over the trailing point axis:
    # returns the (r+1, p+1, points) values.
    p = kv.p
    t = kv.values
    nq = xs.shape[0]
    off = spans + p
    ndu = np.zeros((p + 1, p + 1, nq))
    ndu[0, 0] = 1.0
    left = np.zeros((p + 1, nq))
    right = np.zeros((p + 1, nq))
    for j in range(1, p + 1):
        left[j] = xs - t[off + 1 - j]
        right[j] = t[off + j] - xs
        saved = np.zeros(nq)
        for k in range(j):
            ndu[j, k] = right[k + 1] + left[j - k]
            temp = ndu[k, j - 1] / ndu[j, k]
            ndu[k, j] = saved + right[k + 1] * temp
            saved = left[j - k] * temp
        ndu[j, j] = saved

    ders = np.zeros((r + 1, p + 1, nq))
    ders[0] = ndu[:, p]
    for i in range(p + 1):
        a = np.zeros((2, p + 1, nq))
        a[0, 0] = 1.0
        s1, s2 = 0, 1
        for k in range(1, r + 1):
            d = np.zeros(nq)
            rk = i - k
            pk = p - k
            if i >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if i - 1 <= pk else p - i
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d = d + a[s2, j] * ndu[rk + j, pk]
            if i <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, i]
                d = d + a[s2, k] * ndu[i, pk]
            ders[k, i] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, r + 1):
        ders[k] *= fac
        fac *= p - k
    return ders

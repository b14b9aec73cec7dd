"""Tests for cardinal and general B-spline evaluation."""

import tracemalloc
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import BSpline

from eigenspline import (
    ConfigError,
    KnotVector,
    basis_samples,
    bspline_eval_batch,
    cardinal_bspline,
    cardinal_bspline_derivative,
    make_space,
)
from eigenspline import splines
from eigenspline.assembly import quadrature_grid
from eigenspline.splines import grid_samples
from kernel_oracles import eigenfunction_errors as loop_errors


def uniform_knots(p, n_el):
    idx = np.arange(-p, n_el + p + 1)
    return KnotVector(p=p, n_el=n_el, values=idx / n_el)


def open_knots(p, n_el):
    idx = np.clip(np.arange(-p, n_el + p + 1), 0, n_el)
    return KnotVector(p=p, n_el=n_el, values=idx / n_el)


class TestCardinal:
    def test_hat_function(self):
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        assert_allclose(cardinal_bspline(1, t), [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_quadratic_values(self):
        # midpoint values of the quadratic cardinal B-spline
        assert_allclose(cardinal_bspline(2, np.array([0.5, 1.5, 2.5])),
                        [0.125, 0.75, 0.125])

    def test_cubic_peak(self):
        assert_allclose(cardinal_bspline(3, 2.0), 2.0 / 3.0)

    @pytest.mark.parametrize("p", range(17))
    def test_integer_points_rounded_once(self, p):
        # p! N_p(t) = sum_k (-1)^k C(p+1, k) (t - k)_+^p exactly, with the
        # right-continuous (0)_+^0 = 1; every integer value is that
        # fraction correctly rounded, as an array and as a scalar
        def plus(x):
            return x ** p if x > 0 or (x == 0 and p == 0) else 0

        ts = range(-1, p + 3)
        want = [float(Fraction(sum((-1) ** k * comb(p + 1, k) * plus(t - k)
                                   for k in range(p + 2)), factorial(p)))
                for t in ts]
        got = cardinal_bspline(p, np.array(ts, dtype=float))
        assert got.tolist() == want
        assert [cardinal_bspline(p, float(t)) for t in ts] == want

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7])
    def test_symmetry(self, p):
        t = np.linspace(0, p + 1, 57)
        assert_allclose(cardinal_bspline(p, t),
                        cardinal_bspline(p, (p + 1) - t), atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_support(self, p):
        assert cardinal_bspline(p, -0.25) == 0.0
        assert cardinal_bspline(p, p + 1.25) == 0.0
        assert cardinal_bspline(p, 0.0) == 0.0

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_partition_of_unity_on_integer_shifts(self, p):
        x = np.linspace(0.0, 1.0, 11)
        total = sum(cardinal_bspline(p, x + j) for j in range(p + 1))
        assert_allclose(total, np.ones_like(x), rtol=1e-13)

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (3, 2), (5, 3)])
    def test_derivative_matches_finite_difference(self, p, r):
        # offset keeps the stencil away from the knots, where the next
        # derivative jumps and central differences see the average
        t = np.linspace(0.3, p + 0.7, 23) + 0.0131
        d = 1e-6
        approx = (cardinal_bspline_derivative(p, r - 1, t + d)
                  - cardinal_bspline_derivative(p, r - 1, t - d)) / (2 * d)
        assert_allclose(cardinal_bspline_derivative(p, r, t), approx,
                        rtol=1e-6, atol=1e-7)

    def test_derivative_order_zero_is_value(self):
        t = np.linspace(0, 4, 9)
        assert_allclose(cardinal_bspline_derivative(3, 0, t),
                        cardinal_bspline(3, t))

    def test_derivative_order_out_of_range(self):
        with pytest.raises(ConfigError):
            cardinal_bspline_derivative(2, 3, 1.0)


class TestKnotVector:
    def test_num_basis(self):
        kv = uniform_knots(3, 8)
        assert kv.num_basis == 11

    def test_rejects_decreasing(self):
        vals = np.array([0.0, 0.2, 0.1, 0.5, 1.0, 1.2, 1.4])
        with pytest.raises(ConfigError):
            KnotVector(p=1, n_el=4, values=vals)

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigError):
            KnotVector(p=2, n_el=4, values=np.linspace(0, 1, 5))


class TestEvaluation:
    @pytest.mark.parametrize("p,n_el", [(2, 5), (3, 7), (4, 6)])
    def test_against_scipy_uniform(self, p, n_el):
        kv = uniform_knots(p, n_el)
        xs = np.linspace(0, 1, 40)
        spans, vals = bspline_eval_batch(kv, 0, xs)
        nb = kv.num_basis
        ours = np.zeros((xs.size, nb))
        for k, (s, row) in enumerate(zip(spans, vals[:, 0, :])):
            ours[k, s:s + p + 1] = row
        for i in range(nb):
            c = np.zeros(nb)
            c[i] = 1.0
            ref = BSpline(kv.values, c, p, extrapolate=False)(xs)
            ref[np.isnan(ref)] = 0.0
            # scipy treats x=1 as outside the half-open last span
            assert_allclose(ours[:-1, i], ref[:-1], atol=1e-13)

    @pytest.mark.parametrize("p,n_el", [(2, 6), (3, 5), (5, 9)])
    def test_against_scipy_derivatives_open(self, p, n_el):
        kv = open_knots(p, n_el)
        xs = np.linspace(0.01, 0.99, 25)
        spans, vals = bspline_eval_batch(kv, 2, xs)
        nb = kv.num_basis
        for r in (1, 2):
            ours = np.zeros((xs.size, nb))
            for k, (s, row) in enumerate(zip(spans, vals[:, r, :])):
                ours[k, s:s + p + 1] = row
            for i in range(nb):
                c = np.zeros(nb)
                c[i] = 1.0
                ref = BSpline(kv.values, c, p).derivative(r)(xs)
                assert_allclose(ours[:, i], ref, rtol=1e-10, atol=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_uniform_interior_equals_cardinal(self, p):
        # away from the boundary a uniform B-spline is a scaled cardinal one
        n_el = 12
        kv = uniform_knots(p, n_el)
        x = 0.5 + 1e-3
        spans, vals = bspline_eval_batch(kv, 0, [x])
        for a in range(p + 1):
            # the active B-splines start at array position spans[0]
            j = spans[0] + a
            t = (x - kv.values[j]) * n_el
            assert_allclose(vals[0, 0, a], cardinal_bspline(p, t),
                            rtol=1e-12)

    @pytest.mark.parametrize("p,n_el", [(2, 5), (4, 7)])
    def test_partition_of_unity(self, p, n_el):
        kv = open_knots(p, n_el)
        xs = np.linspace(0, 1, 33)
        _, vals = bspline_eval_batch(kv, 1, xs)
        assert_allclose(vals[:, 0, :].sum(axis=1), np.ones(xs.size),
                        rtol=1e-13)
        assert_allclose(vals[:, 1, :].sum(axis=1), np.zeros(xs.size),
                        atol=1e-10)

    def test_open_knot_endpoint_values(self):
        kv = open_knots(3, 6)
        left, right = bspline_eval_batch(kv, kv.p, [0.0, 1.0])[1]
        assert_allclose(left[0, 0], 1.0)
        assert_allclose(left[0, 1:], 0.0, atol=1e-15)
        assert_allclose(right[0, -1], 1.0)
        assert_allclose(right[0, :-1], 0.0, atol=1e-15)

    def test_point_outside_domain_rejected(self):
        kv = open_knots(2, 4)
        with pytest.raises(ConfigError):
            bspline_eval_batch(kv, 0, np.array([-0.1]))
        with pytest.raises(ConfigError):
            bspline_eval_batch(kv, 0, np.array([1.1]))


# knot sequences of every space kind and boundary type
SPACES = [("full", 3, 10, 0), ("full", 4, 10, 1), ("full", 2, 10, 2),
          ("optimal", 3, 10, 0), ("optimal", 4, 10, 1), ("optimal", 5, 10, 2),
          ("optimal", 4, 9, 0), ("reduced", 4, 10, 0), ("reduced", 2, 2, 0)]


class TestBasisSamples:
    @pytest.mark.parametrize("kind,p,n,bc", SPACES)
    def test_matches_dense_per_point_scatter(self, kind, p, n, bc):
        kv = make_space(kind, p, n, bc).knots
        rng = np.random.default_rng(11)
        xs = np.concatenate((kv.values[p:p + kv.n_el], [1.0],
                             rng.uniform(0.0, 1.0, 30)))
        xs = xs[(xs >= 0.0) & (xs <= 1.0)]
        got = basis_samples(kv, xs, p)
        assert len(got) == p + 1
        for d in range(p + 1):
            oracle = np.zeros((xs.size, kv.num_basis))
            for q, x in enumerate(xs):
                spans, vals = bspline_eval_batch(kv, p, [x])
                oracle[q, spans[0]:spans[0] + p + 1] = vals[0, d]
            assert got[d].shape == oracle.shape
            assert np.all(np.diff(got[d].indptr) == p + 1)
            assert np.array_equal(got[d].toarray(), oracle)

    @pytest.mark.parametrize("kind,p,n,bc", SPACES)
    def test_partition_of_unity_on_the_domain(self, kind, p, n, bc):
        kv = make_space(kind, p, n, bc).knots
        xs = np.linspace(0.0, 1.0, 97)
        assert_allclose(basis_samples(kv, xs, 0)[0].sum(axis=1),
                        np.ones(xs.size), rtol=1e-13)

    @pytest.mark.parametrize("kind,p,n,bc", SPACES)
    def test_endpoint_system_is_the_endpoint_sample_row(self, kind, p, n, bc):
        kv = make_space(kind, p, n, bc).knots
        nb = kv.num_basis
        ends = [b.toarray() for b in basis_samples(kv, [0.0, 1.0], p)]
        # the endpoint systems of poisson._hermite
        systems = bspline_eval_batch(kv, p, [0.0, 1.0])[1]
        for q, cols in ((0, slice(0, p + 1)), (1, slice(nb - p - 1, nb))):
            system = systems[q]
            assert system.shape == (p + 1, p + 1)
            for d in range(p + 1):
                assert np.array_equal(ends[d][q, cols], system[d])


def _grid_and_samples(kv, breaks, r):
    xs, _ = quadrature_grid(breaks, kv.p + 3)
    return xs, basis_samples(kv, xs, r), grid_samples(kv, breaks, xs, r)


def _table_spaces():
    """Every legal kind x bc x p <= 10 x n in {2p + 3, 40, 97, 1925}."""
    for kind, bc in (("full", 0), ("full", 1), ("full", 2), ("optimal", 0),
                     ("optimal", 1), ("optimal", 2), ("reduced", 0)):
        for p in range(1, 11):
            if kind == "reduced" and p % 2:
                continue
            for n in (2 * p + 3, 40, 97, 1925):
                try:
                    yield make_space(kind, p, n, bc)
                except ConfigError:
                    pass


class TestGridSamples:
    """One B-spline table per element class on the p+3-point grids."""

    @pytest.mark.parametrize("kind", ["full", "optimal", "reduced"])
    def test_tables_match_per_point_path(self, kind, monkeypatch):
        # Window, fixed before the run: (p + 1) eps / h of each column's
        # maximum.  The per-point path rounds each of the p + 1 knot
        # differences x - xi of the triangle by about eps, eps/h relative
        # to the span; the table is taken on the generic element nearest
        # x = 0, where that rounding is smallest.  The triangle must run
        # on the points of the elements outside the generic range plus one
        # element only: the two cut ends of a shifted layout, the p
        # clipped spans at each end of an open one.
        eps = np.finfo(float).eps
        evaluated = []
        ders = splines._ders_basis

        def counting(kv, spans, xs, r):
            evaluated.append(xs.size)
            return ders(kv, spans, xs, r)

        monkeypatch.setattr(splines, "_ders_basis", counting)
        checked = 0
        for sp in _table_spaces():
            if sp.kind != kind:
                continue
            p, m = sp.p, sp.p + 3
            evaluated.clear()
            xs, ref, got = _grid_and_samples(sp.knots, sp.breaks, 1)
            own = 2 * p + 1 if kind == "full" else 3
            if sp.n_el > own:
                assert evaluated[-1] <= own * m
            window = (p + 1) * eps / sp.h
            for d in range(2):
                assert np.array_equal(got[d].indices, ref[d].indices)
                assert np.array_equal(got[d].indptr, ref[d].indptr)
                assert got[d].shape == ref[d].shape
                scale = np.zeros(sp.knots.num_basis)
                np.maximum.at(scale, ref[d].indices, np.abs(ref[d].data))
                dev = np.abs(got[d].data - ref[d].data) \
                    / scale[ref[d].indices]
                assert dev.max() <= window, (sp.bc, p, sp.n, d, dev.max())
            checked += 1
        assert checked == {"full": 120, "optimal": 120, "reduced": 20}[kind]

    def test_left_part_of_the_breaks_takes_tables(self):
        # the half-interval error pass samples the elements left of 1/2
        sp = make_space("full", 5, 1112, 0)
        breaks = sp.breaks[:(sp.n_el + 1) // 2 + 1]
        _, ref, got = _grid_and_samples(sp.knots, breaks, 0)
        # elements 5, ... to the end of the part are generic, one class
        cls, reps = splines._classes(sp.knots, breaks,
                                     splines._layout(sp.knots))
        assert np.array_equal(reps, np.arange(6))
        assert np.array_equal(cls, np.minimum(np.arange(breaks.size - 1), 5))
        assert np.array_equal(got[0].indices, ref[0].indices)
        assert_allclose(got[0].data, ref[0].data, rtol=0, atol=1e-12)

    def test_last_elements_no_farther_from_exact_values(self):
        # Optimal Dirichlet p = 5, n = 1925: the last three elements, where
        # the table is element 1's.  Reference: the B-splines of the exact
        # knots xi_j = (2j - sigma)/den at the exact Gauss points mid_e +
        # half_e * node of each element (40 digits), which both paths
        # approximate; the per-point path also carries the rounding of the
        # grid points near x = 1, about eps/h of the column maximum, which
        # the table does not.
        mpmath = pytest.importorskip("mpmath")
        mpf = mpmath.mpf
        p, n = 5, 1925
        sp = make_space("optimal", p, n, 0)
        den, sigma, _ = splines._layout(sp.knots)
        m, w = p + 3, p + 1
        node, _ = quadrature_grid(np.array([-1.0, 1.0]), m)
        _, ref, got = _grid_and_samples(sp.knots, sp.breaks, 1)

        def knot(j):
            return mpf(2 * j - sigma) / den

        def exact(e, x):
            # Cox-de Boor; derivatives from the degree-(p-1) values on the
            # uniform spacing h = 2/den
            vals = [mpf(1)] + [mpf(0)] * p
            for j in range(1, p + 1):
                if j == p:
                    lower = vals[:p]
                saved = mpf(0)
                for k in range(j):
                    right, left = knot(e + k + 1) - x, x - knot(e + k + 1 - j)
                    temp = vals[k] / (right + left)
                    vals[k] = saved + right * temp
                    saved = left * temp
                vals[j] = saved
            pad = [mpf(0)] + lower + [mpf(0)]
            d1 = [(pad[a] - pad[a + 1]) * den / 2 for a in range(w)]
            return vals, d1

        far = np.zeros((2, 2))
        with mpmath.workdps(40):
            for e in range(sp.n_el - 3, sp.n_el):
                mid, half = (knot(e) + knot(e + 1)) / 2, mpf(1) / den
                for q in range(m):
                    rows = slice((e * m + q) * w, (e * m + q + 1) * w)
                    for d, vals in enumerate(exact(e, mid + half * node[q])):
                        vals = np.array([float(v) for v in vals])
                        scale = np.abs(ref[d].data).max()
                        for k, b in enumerate((ref, got)):
                            far[d, k] = max(far[d, k], np.abs(
                                b[d].data[rows] - vals).max() / scale)
        assert np.all(far[:, 1] <= far[:, 0]), far
        assert far[:, 0].max() <= (p + 1) * np.finfo(float).eps / sp.h, far

    def test_graded_knots_and_right_slices_take_every_point(self):
        # Knots or breaks with no uniform layout from x = 0 on give the
        # per-point bits exactly, so no two elements that are not
        # translates of each other ever share a table.
        p, n_el = 3, 12
        graded = np.concatenate((np.zeros(p), np.linspace(0.0, 1.0, n_el + 1)
                                 ** 2, np.ones(p)))
        kv = KnotVector(p=p, n_el=n_el, values=graded)
        bumped = make_space("optimal", p, 40, 0).knots
        values = bumped.values.copy()
        values[p + 7] = np.nextafter(values[p + 7], 1.0)
        bumped = KnotVector(p=p, n_el=bumped.n_el, values=values)
        sp = make_space("optimal", 5, 1925, 0)
        cases = [(kv, graded[p:p + n_el + 1]),
                 (bumped, np.concatenate(([0.0], values[p + 1:-p - 1],
                                          [1.0]))),
                 (sp.knots, sp.breaks[-(sp.p + 2):]),
                 (sp.knots, sp.breaks[1:])]
        for kv, breaks in cases:
            assert splines._classes(kv, breaks, splines._layout(kv)) is None
            _, ref, got = _grid_and_samples(kv, breaks, 1)
            for d in range(2):
                assert np.array_equal(got[d].data, ref[d].data)
                assert np.array_equal(got[d].indices, ref[d].indices)

    def test_layouts_without_generic_elements_take_classes(self,
                                                           monkeypatch):
        # A layout with at most one generic element (every other one
        # depends on a clipped knot) has one class per element: the
        # triangle runs once, on every point, and the samples are the
        # per-point bits exactly, with no fall-back to basis_samples,
        # which layouts with no generic element took before they had
        # classes.  Here: the 24 full spaces with n = 2p + 3 and p >= 2.
        evaluated = []
        ders = splines._ders_basis

        def counting(kv, spans, xs, r):
            evaluated.append(xs.size)
            return ders(kv, spans, xs, r)

        def forbidden(*args):
            raise AssertionError("per-point fall-back taken")

        checked = 0
        for sp in _table_spaces():
            cls, reps = splines._classes(sp.knots, sp.breaks,
                                         splines._layout(sp.knots))
            if reps.size < sp.n_el:
                continue
            assert np.array_equal(cls, np.arange(sp.n_el))
            assert np.array_equal(reps, np.arange(sp.n_el))
            xs, _ = quadrature_grid(sp.breaks, sp.p + 3)
            ref = basis_samples(sp.knots, xs, 1)
            monkeypatch.setattr(splines, "_ders_basis", counting)
            monkeypatch.setattr(splines, "basis_samples", forbidden)
            evaluated.clear()
            got = grid_samples(sp.knots, sp.breaks, xs, 1)
            monkeypatch.undo()
            assert evaluated == [xs.size]
            for d in range(2):
                assert np.array_equal(got[d].data, ref[d].data)
                assert np.array_equal(got[d].indices, ref[d].indices)
                assert np.array_equal(got[d].indptr, ref[d].indptr)
            checked += 1
        assert checked == 24

    def test_working_memory_below_one_triangle(self):
        # Optimal p = 5, n = 1925, r = 1: the samples themselves, (r + 1)
        # values and the shared column indices per point and B-spline, are
        # about half of one (p + 1)^2 x points float array (4.4 MB), which
        # the per-point triangle allocates; the table path's peak may
        # exceed the memory its result holds by at most a quarter of it.
        sp = make_space("optimal", 5, 1925, 0)
        xs, _ = quadrature_grid(sp.breaks, sp.p + 3)
        tracemalloc.start()
        try:
            out = grid_samples(sp.knots, sp.breaks, xs, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 2
        assert peak <= 1.25 * held, (peak, held)
        assert peak < 8 * (sp.p + 1) ** 2 * xs.size, peak

    def test_oracle_samples_every_point(self, monkeypatch):
        # the loop oracle of the error pass stays on the per-point path, so
        # it does not share the tables it checks (at the parent every path
        # is per-point, so this pins the oracle's independence from now on
        # and cannot fail there)
        evaluated = []
        ders = splines._ders_basis

        def counting(kv, spans, xs, r):
            evaluated.append(xs.size)
            return ders(kv, spans, xs, r)

        monkeypatch.setattr(splines, "_ders_basis", counting)
        sp = make_space("optimal", 4, 60, 0)
        loop_errors(sp, np.eye(sp.n))
        assert evaluated == [sp.n_el * (sp.p + 3)]

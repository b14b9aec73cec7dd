"""Tests for cardinal and general B-spline evaluation."""

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
from eigenspline.splines import active_derivatives


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
        left = active_derivatives(kv, 0.0)
        assert_allclose(left[0, 0], 1.0)
        assert_allclose(left[0, 1:], 0.0, atol=1e-15)
        right = active_derivatives(kv, 1.0)
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
        for q, x, cols in ((0, 0.0, slice(0, p + 1)),
                           (1, 1.0, slice(nb - p - 1, nb))):
            system = active_derivatives(kv, x)
            assert system.shape == (p + 1, p + 1)
            for d in range(p + 1):
                assert np.array_equal(ends[d][q, cols], system[d])

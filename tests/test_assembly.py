"""Tests for quadrature, Galerkin assembly and error functionals."""

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from eigenspline import (
    ConfigError,
    SymBandMatrix,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    bspline_gram,
    function_error,
    gauss_legendre,
    make_space,
    reduced_basis_matrix,
)
from eigenspline import assembly, poisson, splines
from eigenspline.assembly import (MAX_GAUSS, _band, _congruence, _pencil,
                                  bspline_load, error_b_coefficients,
                                  quadrature_grid)
from eigenspline.spaces import _fold, _unfold
from eigenspline.splines import (KnotVector, basis_samples,
                                 bspline_eval_batch, grid_samples)
from exact_modes import exact_gram_band, exact_knots
from kernel_oracles import (band_matvec, band_to_dense, congruence_band,
                            exact_congruence_gap, pointwise_gram_band,
                            trace_fit_band)

# Fold congruence bands against the exact sum of their float Gram terms,
# in units of eps times the band's largest entry.  Measured over the
# layout sweep: 0.78 for the scatter, 0.71 for the symmetrised sparse
# product, 1.28 for a scatter that adds a shared row's off-diagonal term
# to the diagonal twice instead of doubled once.
FOLD_WINDOW = 2.0


def band_from_dense(a):
    """SymBandMatrix holding a dense symmetric matrix, bandwidth the
    widest nonzero diagonal (the reference for the banded routes)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ConfigError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ConfigError("matrix must be symmetric")
    nz = np.nonzero(a)
    bw = int(np.max(np.abs(nz[0] - nz[1]))) if nz[0].size else 0
    band = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        band[d, :n - d] = np.diagonal(a, -d)
    return SymBandMatrix(n=n, bandwidth=bw, band=band)


def _gram(sp, d):
    return _band(sp, bspline_gram(sp.knots, sp.breaks, d))


def _gram_dense(sp, d):
    return _gram(sp, d).to_dense()


def _layout_sweep(sizes=lambda p: (25, 97),
                  kinds=("full", "optimal", "reduced")):
    """Every kind x bc x p <= 10 at the sizes n of p (by default n = 25 and
    97), where the space exists."""
    for kind in kinds:
        for bc in (0, 1, 2):
            for p in range(1, 11):
                for n in sizes(p):
                    try:
                        yield make_space(kind, p, n, bc)
                    except ConfigError:
                        pass


def _arbitrary_knots(p, n_el, rng):
    """Open knots with random interior knots on [0, 1], and their breaks:
    a sequence with no uniform layout."""
    inner = np.sort(rng.uniform(0.0, 1.0, n_el - 1))
    values = np.concatenate((np.zeros(p + 1), inner, np.ones(p + 1)))
    return (KnotVector(p=p, n_el=n_el, values=values),
            np.concatenate(([0.0], inner, [1.0])))


def _bitwise_sizes(p):
    return 2 * p + 3, 40, 97


def _dense_mirror_halves(a):
    """The even and odd halves of (A + J A J) / 2 from dense blocks:
    A11 +- A12 J, and for odd n the middle row and column joining the even
    half, off the diagonal times sqrt(2)."""
    n = a.shape[0]
    k = n // 2
    a = 0.5 * (a + a[::-1, ::-1])
    a12j = a[:k, n - k:][:, ::-1]
    even = np.zeros((n - k, n - k))
    even[:k, :k] = a[:k, :k] + a12j
    if n > 2 * k:
        even[:k, k] = even[k, :k] = np.sqrt(2.0) * a[:k, k]
        even[k, k] = a[k, k]
    return even, a[:k, :k] - a12j


def _random_band(rng, n, bw):
    """SymBandMatrix with random entries, zero past the matrix edge."""
    band = rng.standard_normal((bw + 1, n))
    for d in range(1, bw + 1):
        band[d, n - d:] = 0.0
    return SymBandMatrix(n=n, bandwidth=bw, band=band)


def _dense_gram_oracle(knots, breaks, d, m):
    # element by element into a dense matrix, one evaluation per element
    p = knots.p
    g = np.zeros((knots.num_basis, knots.num_basis))
    x, w = gauss_legendre(m)
    for a, b in zip(breaks[:-1], breaks[1:]):
        spans, vals = bspline_eval_batch(knots, d, 0.5 * (a + b)
                                         + 0.5 * (b - a) * x)
        v = vals[:, d, :]
        lo = int(spans[0])
        g[lo:lo + p + 1, lo:lo + p + 1] += \
            (v * (0.5 * (b - a) * w)[:, None]).T @ v
    return g


class TestGauss:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
    def test_polynomial_exactness(self, m):
        x, w = gauss_legendre(m)
        assert_allclose(w.sum(), 2.0, rtol=1e-14)
        for k in range(2 * m):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert_allclose(np.sum(w * x ** k), exact, atol=1e-13)

    def test_cached_rule_is_leggauss_in_fresh_copies(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        assembly._leggauss.cache_clear()
        try:
            for m in range(1, MAX_GAUSS + 1):
                x, w = gauss_legendre(m)
                ref = real(m)
                assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
                # writable, and a caller's writes never reach the next call
                x[:] = w[:] = np.nan
                x, w = gauss_legendre(m)
                assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
            assert calls == list(range(1, MAX_GAUSS + 1))
        finally:
            assembly._leggauss.cache_clear()

    def test_rejects_silly_sizes(self):
        with pytest.raises(ConfigError):
            gauss_legendre(0)
        with pytest.raises(ConfigError):
            gauss_legendre(33)

    def test_grid_covers_elements(self):
        breaks = np.array([0.0, 0.25, 0.5, 1.0])
        xs, ws = quadrature_grid(breaks, 4)
        assert xs.size == 12
        assert_allclose(ws.sum(), 1.0, rtol=1e-15)
        assert_allclose(np.sum(ws * xs ** 3), 0.25, rtol=1e-14)


class TestBandMatrix:
    def test_round_trip(self):
        a = np.array([[4.0, 1.0, 0.0],
                      [1.0, 5.0, 2.0],
                      [0.0, 2.0, 6.0]])
        m = band_from_dense(a)
        assert m.bandwidth == 1
        assert_allclose(m.to_dense(), a)

    def test_matvec(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        m = band_from_dense(a)
        x = rng.standard_normal(6)
        assert_allclose(m.matvec(x), a @ x, rtol=1e-14)

    def test_diagonal_has_zero_bandwidth(self):
        m = band_from_dense(np.diag([1.0, 2.0, 3.0]))
        assert m.bandwidth == 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            band_from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ConfigError):
            band_from_dense(np.zeros((2, 3)))

    @pytest.mark.parametrize("n,bw", [(1, 0), (6, 0), (9, 1), (9, 3),
                                      (7, 6)])
    def test_banded_matvec_matches_dense(self, n, bw):
        rng = np.random.default_rng(n + 10 * bw)
        a = rng.standard_normal((n, n))
        a = np.tril(np.triu(a + a.T, -bw), bw)
        m = band_from_dense(a)
        assert m.bandwidth == bw
        x = rng.standard_normal(n)
        xs = rng.standard_normal((n, 4))
        dense = m.to_dense()
        assert_allclose(m.matvec(x), dense @ x, rtol=1e-14, atol=1e-14)
        assert_allclose(m.matvec(xs), dense @ xs, rtol=1e-14, atol=1e-14)
        assert m.matvec(xs).shape == (n, 4)

    def test_matvec_bitwise_against_diagonal_loop(self):
        # the diagonal-format product adds the diagonals in the loop's
        # order, so the two agree exactly for vectors, C- and F-ordered
        # blocks, a strided column slice (what the wave certificate
        # passes), every legal bandwidth (at most n - 1) and n up to 2000
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 5, 11, 40, 97, 300, 1287, 2000):
            for bw in range(min(10, n - 1) + 1):
                a = _random_band(rng, n, bw)
                for x in (rng.standard_normal(n), rng.standard_normal((n, 5)),
                          rng.standard_normal((3, n)).T,
                          rng.standard_normal((n, 9))[:, 2:7]):
                    y = a.matvec(x)
                    assert y.shape == x.shape
                    assert np.array_equal(y, band_matvec(a, x))

    def test_sparse_round_trip(self):
        # from_sparse(to_sparse(a)) gives a back, bandwidth included, and
        # the dense form equals the diagonal loop's; an all-zero outer
        # diagonal is not kept
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 5, 11, 40, 97):
            for bw in range(min(10, n - 1) + 1):
                a = _random_band(rng, n, bw)
                b = SymBandMatrix.from_sparse(a.to_sparse())
                assert (b.n, b.bandwidth) == (n, bw)
                assert np.array_equal(b.band, a.band)
                assert np.array_equal(a.to_dense(), band_to_dense(a))
        a = _random_band(rng, 9, 3)
        a.band[3] = 0.0
        b = SymBandMatrix.from_sparse(a.to_sparse())
        assert b.bandwidth == 2 and np.array_equal(b.band, a.band[:3])

    def test_mirror_halves_match_dense_blocks(self):
        # read from the band, the halves equal the dense block formulas
        # entry for entry (the same sums, each entry formed once), with
        # nothing past their edges, for every n and bandwidth below n; a
        # half narrower than the bandwidth keeps its own (size - 1)
        rng = np.random.default_rng(15)
        for n in range(1, 30):
            for bw in range(min(8, n - 1) + 1):
                a = _random_band(rng, n, bw)
                halves = a.mirror_halves()
                for half, ref in zip(halves, _dense_mirror_halves(
                        a.to_dense())):
                    assert half.n == ref.shape[0]
                    assert half.bandwidth == min(bw, max(half.n - 1, 0))
                    assert np.array_equal(half.to_dense(), ref)
                    assert np.array_equal(half.to_dense(),
                                          band_to_dense(half))
                assert [h.n for h in halves] == [n - n // 2, n // 2]

    def test_mirror_halves_split_the_spectrum(self):
        # the halves' eigenpairs, mapped through [y; +-Jy] / sqrt(2) (the
        # middle entry of odd n unscaled), are those of the symmetrised
        # matrix
        rng = np.random.default_rng(16)
        for n, bw in ((10, 3), (11, 3), (12, 5), (13, 1)):
            a = _random_band(rng, n, bw)
            sym = 0.5 * (a.to_dense() + a.to_dense()[::-1, ::-1])
            k = n // 2
            for sign, half in zip((1.0, -1.0), a.mirror_halves()):
                w, y = np.linalg.eigh(half.to_dense())
                v = np.zeros((n, half.n))
                v[:k] = y[:k] / np.sqrt(2.0)
                v[n - k:] = sign * y[:k][::-1] / np.sqrt(2.0)
                if half.n > k:
                    v[k] = y[k]
                assert_allclose(v.T @ v, np.eye(half.n), atol=1e-14)
                assert_allclose(sym @ v, v * w, atol=1e-13)

    def test_from_sparse_sums_duplicates(self):
        a = scipy.sparse.coo_array(([1.0, 2.0, 3.0, 3.0],
                                    ([0, 1, 1, 0], [0, 1, 1, 1])),
                                   shape=(2, 2))
        b = SymBandMatrix.from_sparse(a)
        assert b.bandwidth == 0
        assert np.array_equal(b.band, [[1.0, 5.0]])

    def test_matvec_reads_band_as_it_stands(self):
        # nothing is cached from an earlier product: a band written in
        # place, or replaced, is what the next product multiplies by
        rng = np.random.default_rng(4)
        a = SymBandMatrix(n=30, bandwidth=3,
                          band=rng.standard_normal((4, 30)))
        x = rng.standard_normal(30)
        a.matvec(x)
        a.band[1, :5] += 1.0
        assert np.array_equal(a.matvec(x), band_matvec(a, x))
        a.band = 2.0 * a.band
        assert np.array_equal(a.matvec(x), band_matvec(a, x))

    @pytest.mark.parametrize("kind,p,n,bc", [
        ("optimal", 3, 12, 0), ("optimal", 4, 9, 1), ("full", 5, 14, 2),
        ("reduced", 6, 10, 0),
    ])
    def test_matvec_bitwise_on_2d_correction_products(self, kind, p, n, bc):
        # the (nb, nb) products G1 C G2 = (G2 (G1 C)^T)^T of the 2D
        # boundary correction, on the B-spline Gram matrices it uses
        sp = make_space(kind, p, n, bc)
        g_s, g_m = _gram(sp, 1), _gram(sp, 0)
        nb = sp.knots.num_basis
        corr = np.random.default_rng(p + n).standard_normal((nb, nb))
        new = g_m.matvec(g_s.matvec(corr).T).T \
            + g_s.matvec(g_m.matvec(corr).T).T
        ref = band_matvec(g_m, band_matvec(g_s, corr).T).T \
            + band_matvec(g_s, band_matvec(g_m, corr).T).T
        assert np.array_equal(new, ref)


class TestClosedForms:
    def test_hat_mass(self):
        # piecewise linear hats on a uniform grid
        sp = make_space("full", 1, 4, 0)
        h = 1.0 / sp.n_el
        m = assemble_mass(sp).to_dense()
        assert_allclose(np.diag(m), np.full(4, 2 * h / 3), rtol=1e-14)
        assert_allclose(np.diag(m, 1), np.full(3, h / 6), rtol=1e-14)
        assert np.count_nonzero(m - np.triu(np.tril(m, 1), -1)) == 0

    def test_hat_stiffness(self):
        sp = make_space("full", 1, 4, 0)
        h = 1.0 / sp.n_el
        s = assemble_stiffness(sp).to_dense()
        assert_allclose(np.diag(s), np.full(4, 2 / h), rtol=1e-14)
        assert_allclose(np.diag(s, 1), np.full(3, -1 / h), rtol=1e-14)

    def test_hat_load_constant(self):
        # f = 1 integrates each interior hat to h and each boundary half
        # hat to h/2
        sp = make_space("full", 1, 5, 1)
        h = 1.0 / sp.n_el
        b = assemble_load(sp, lambda x: np.ones_like(x))
        expected = np.full(5, h)
        expected[0] = expected[-1] = h / 2
        assert_allclose(b, expected, rtol=1e-14)

    def test_full_bandwidth_is_degree(self):
        for p in (1, 2, 3, 4):
            sp = make_space("full", p, p + 6, 0)
            assert assemble_mass(sp).bandwidth == p


class TestGramOracles:
    @pytest.mark.parametrize("p,n_el", [(1, 5), (2, 4), (3, 4)])
    def test_exact_symbolic_gram(self, p, n_el):
        # independent exact-arithmetic route for the open-knot Gram matrix
        import sympy as sy

        sp = make_space("full", p, n_el + p - 2, 0)
        x = sy.Symbol("x")
        knots = ([sy.Integer(0)] * (p + 1)
                 + [sy.Rational(k, n_el) for k in range(1, n_el)]
                 + [sy.Integer(1)] * (p + 1))
        basis = sy.bspline_basis_set(p, knots, x)
        nb = len(basis)
        exact = np.zeros((nb, nb))
        for i in range(nb):
            for j in range(i, min(i + p + 1, nb)):
                val = sy.integrate(basis[i] * basis[j], (x, 0, 1))
                exact[i, j] = exact[j, i] = float(val)
        got = _gram_dense(sp, 0)
        assert_allclose(got, exact, atol=1e-15)

    @pytest.mark.parametrize("kind,p,n,bc", [
        ("optimal", 3, 9, 0), ("optimal", 4, 9, 1), ("optimal", 5, 9, 2),
        ("reduced", 4, 9, 0), ("full", 3, 9, 0),
    ])
    def test_congruence_matches_direct_quadrature(self, kind, p, n, bc):
        # assemble the reduced matrices by brute force on a dense Gauss grid
        sp = make_space(kind, p, n, bc)
        xs, ws = quadrature_grid(sp.breaks, p + 1)
        vals = reduced_basis_matrix(sp, xs, r=1)
        for d, assemble in ((0, assemble_mass), (1, assemble_stiffness)):
            direct = np.einsum("qa,qb,q->ab", vals[d], vals[d], ws)
            assert_allclose(assemble(sp).to_dense(), direct,
                            atol=1e-13 * np.abs(direct).max())

    def test_rule_refinement_is_noop(self):
        # p+1 Gauss points already integrate the products exactly
        sp = make_space("optimal", 4, 9, 0)
        g1 = _gram_dense(sp, 0)
        g2 = _dense_gram_oracle(sp.knots, sp.breaks, 0, sp.p + 4)
        assert_allclose(g1, g2, atol=1e-15)

    # rule: Gauss points of the dense oracle, None for the band's p + 1
    @pytest.mark.parametrize("kind,p,n,bc,rule", [
        ("full", 3, 9, 0, None), ("full", 2, 9, 1, None),
        ("full", 4, 9, 2, None), ("optimal", 3, 9, 0, None),
        ("optimal", 4, 9, 1, None), ("optimal", 5, 9, 2, None),
        ("reduced", 4, 9, 0, None),
        ("reduced", 2, 2, 0, None),    # two elements
        ("optimal", 5, 3, 1, None),    # n_el <= p + 1: fold across both ends
        ("optimal", 3, 9, 0, 7),       # finer oracle rule
    ])
    def test_band_gram_matches_dense_oracle(self, kind, p, n, bc, rule):
        sp = make_space(kind, p, n, bc)
        nb = sp.knots.num_basis
        m = p + 1 if rule is None else rule
        for d in (0, 1, p):
            band = bspline_gram(sp.knots, sp.breaks, d)
            assert isinstance(band, np.ndarray) and band.shape == (p + 1, nb)
            for k in range(1, p + 1):
                assert not band[k, nb - k:].any()
            oracle = _dense_gram_oracle(sp.knots, sp.breaks, d, m)
            assert_allclose(SymBandMatrix(nb, p, band).to_dense(), oracle,
                            rtol=1e-14, atol=1e-14 * np.abs(oracle).max())

    def test_one_gram_is_one_evaluation_call(self, monkeypatch):
        # the Cox-de Boor triangle runs once, on the p+1 points of each
        # class representative of a layout, and of every element of knots
        # without classes
        tables, triangles = [], []
        real_tables, real_triangle = assembly._class_tables, \
            splines._ders_basis

        def counting_tables(kv, spans, pts, r):
            tables.append((r, pts.size))
            return real_tables(kv, spans, pts, r)

        def counting_triangle(kv, spans, xs, r):
            triangles.append(xs.size)
            return real_triangle(kv, spans, xs, r)

        monkeypatch.setattr(assembly, "_class_tables", counting_tables)
        monkeypatch.setattr(splines, "_ders_basis", counting_triangle)
        for kind, p, n, bc in (("optimal", 5, 40, 0), ("full", 4, 300, 1),
                               ("reduced", 6, 50, 0)):
            sp = make_space(kind, p, n, bc)
            _, reps = splines._classes(sp.knots, sp.breaks,
                                       splines._layout(sp.knots))
            assert reps.size < sp.n_el
            tables.clear(), triangles.clear()
            bspline_gram(sp.knots, sp.breaks, 1)
            assert tables == [(1, reps.size * (p + 1))]
            assert triangles == [reps.size * (p + 1)]
        kv, breaks = _arbitrary_knots(3, 17, np.random.default_rng(4))
        tables.clear(), triangles.clear()
        bspline_gram(kv, breaks, 1)
        assert tables == [(1, 17 * 4)]
        assert triangles == [17 * 4]

    def test_pencil_is_one_evaluation_and_bitwise(self, monkeypatch):
        # both Gram bands from one order-1 class table: the pencil equals
        # the two public assemblies byte for byte on every space of the
        # sweep (the order-0 values of an order-1 evaluation are those of
        # an order-0 one)
        calls = []
        real = assembly._class_tables

        def counting(kv, spans, pts, r):
            calls.append(r)
            return real(kv, spans, pts, r)

        checked = 0
        for sp in _layout_sweep(_bitwise_sizes):
            s_ref, m_ref = assemble_stiffness(sp), assemble_mass(sp)
            monkeypatch.setattr(assembly, "_class_tables", counting)
            calls.clear()
            s, m, g1, g0 = _pencil(sp)
            monkeypatch.undo()
            assert calls == [1]
            for got, ref in ((s, s_ref), (m, m_ref)):
                assert (got.n, got.bandwidth) == (ref.n, ref.bandwidth)
                assert got.band.tobytes() == ref.band.tobytes()
            # the B-spline Gram matrices it returns are the public bands
            for got, d in ((g1, 1), (g0, 0)):
                assert (got.n, got.bandwidth) == (sp.knots.num_basis, sp.p)
                assert got.band.tobytes() == bspline_gram(
                    sp.knots, sp.breaks, d).tobytes()
            checked += 1
        assert checked == 195

    def test_arbitrary_knots_bitwise_against_pointwise(self):
        # knots without element classes take every element as its own
        # class: the per-point evaluation, bit for bit, in every order
        rng = np.random.default_rng(7)
        checked = 0
        for p in range(1, 9):
            for n_el in (2, 3, 17, 40):
                kv, breaks = _arbitrary_knots(p, n_el, rng)
                assert splines._layout(kv) is None
                for d in range(p + 1):
                    got = bspline_gram(kv, breaks, d)
                    assert got.tobytes() == \
                        pointwise_gram_band(kv, breaks, d).tobytes()
                    checked += 1
        assert checked == 4 * 44

    def test_class_bands_match_pointwise(self):
        # Window, stated before the run: 2 (p+1) n_el eps of the band's
        # largest entry.  The per-point values carry the rounding of each
        # Gauss point, about eps/h = n_el eps in the local coordinate,
        # which moves a B-spline's p+1 pieces and their derivatives by a
        # few times that; the class tables are evaluated at the points of
        # the element nearest x = 0, where the coordinate rounds least.
        eps = np.finfo(float).eps
        checked = worst = 0
        for sp in _layout_sweep(_bitwise_sizes):
            for d in (0, 1):
                got = bspline_gram(sp.knots, sp.breaks, d)
                ref = pointwise_gram_band(sp.knots, sp.breaks, d)
                gap = np.abs(got - ref).max() / np.abs(ref).max()
                worst = max(worst, gap / (sp.n_el * eps))
                assert gap <= 2 * (sp.p + 1) * sp.n_el * eps, \
                    (sp.kind, sp.bc, sp.p, sp.n, d)
                checked += 1
        assert checked == 2 * 195
        # the two evaluations are not the same
        assert worst > 0.0

    @pytest.mark.parametrize("kind,p,n,bc", [
        ("full", 7, 17, 0), ("full", 3, 20, 1), ("full", 8, 30, 2),
        ("optimal", 5, 24, 2), ("optimal", 8, 19, 0), ("reduced", 4, 24, 0),
    ])
    def test_class_bands_against_exact_rationals(self, kind, p, n, bc):
        # Window, stated before the run: 8 (p+1) eps of the band's largest
        # entry, whatever n_el: each entry adds p+1 element blocks, each a
        # (p+1)-point sum of products of B-spline values and derivatives
        # that are exact to a few eps.  Reference: the Gram band of the
        # exact rational knots, each B-spline piece a rational polynomial
        # integrated in closed form.
        eps = np.finfo(float).eps
        sp = make_space(kind, p, n, bc)
        knots = exact_knots(sp.knots)
        for d in (0, 1):
            ref = np.array([[float(x) for x in row] for row in
                            exact_gram_band(knots, p, sp.n_el, d)])
            got = bspline_gram(sp.knots, sp.breaks, d)
            assert np.abs(got - ref).max() <= \
                8 * (p + 1) * eps * np.abs(ref).max()

    def test_interior_diagonals_constant_and_mirror_exact(self):
        # Every element of the generic class shares one block, so each
        # band entry whose elements are all generic is the same on its
        # diagonal.  On layouts whose knots mirror about x = 1/2 the band
        # is mirror-symmetric, G[i, j] == G[nb-1-i, nb-1-j]; full
        # Dirichlet and Neumann pencils (both ends dropped alike) then
        # satisfy A == J A J bit for bit.
        checked = mirrored = 0
        for sp in _layout_sweep(_bitwise_sizes):
            p, nb = sp.p, sp.knots.num_basis
            layout = splines._layout(sp.knots)
            cls, _ = splines._classes(sp.knots, sp.breaks, layout)
            generic = np.flatnonzero(cls == np.bincount(cls).argmax())
            s, m, g1, g0 = _pencil(sp)
            for g in (g1, g0):
                for k in range(p + 1):
                    inner = g.band[k, generic[0] + p - k:generic[-1] + 1]
                    assert np.all(inner == inner[:1])
            if layout[0] == 2 * (sp.n_el - layout[1]):
                for g in (g1, g0):
                    for k in range(p + 1):
                        row = g.band[k, :nb - k]
                        assert np.array_equal(row, row[::-1])
                mirrored += 1
                if sp.kind == "full" and sp.bc != 2:
                    for a in (s, m):
                        dense = a.to_dense()
                        assert np.array_equal(dense, dense[::-1, ::-1])
                        checked += 1
        # every full and reduced layout, and the optimal Dirichlet and
        # Neumann ones (an optimal mixed layout has den = 2n + 1 odd)
        assert mirrored == 165
        assert checked == 2 * 60

    def test_full_congruence_is_a_band_slice(self, monkeypatch):
        # a full space's extraction selects B-splines, so its congruence
        # is a slice of the B-spline band with the past-edge entries
        # zeroed: byte for byte the sparse product of the hand route, and
        # no sparse copy of the band is made
        copies = []
        monkeypatch.setattr(SymBandMatrix, "to_sparse",
                            lambda self: copies.append(self.n))
        checked = 0
        for sp in _layout_sweep(_bitwise_sizes, ("full",)):
            for d in (0, 1):
                got = _congruence(sp, bspline_gram(sp.knots, sp.breaks, d))
                bw, band = congruence_band(sp, d)
                assert (got.n, got.bandwidth) == (sp.n, bw)
                assert got.band.tobytes() == band.tobytes()
                checked += 1
        assert copies == []
        assert checked == 2 * 90

    @pytest.mark.parametrize("kind,p,n,bc", [
        ("full", 3, 9, 0), ("full", 5, 9, 1), ("optimal", 3, 9, 1),
        ("optimal", 4, 9, 0), ("optimal", 5, 9, 2), ("reduced", 2, 2, 0),
        ("reduced", 6, 12, 0), ("optimal", 5, 3, 1), ("optimal", 6, 4, 2),
    ])
    def test_congruence_matches_dense_route(self, kind, p, n, bc):
        # the sparse congruence against the dense triple product banded by
        # band_from_dense: same bandwidth, same entries up to round-off
        sp = make_space(kind, p, n, bc)
        e = sp.extraction.toarray()
        for d, assemble in ((0, assemble_mass), (1, assemble_stiffness)):
            a = e @ _gram_dense(sp, d) @ e.T
            ref = band_from_dense(0.5 * (a + a.T))
            got = assemble(sp)
            assert (got.n, got.bandwidth) == (ref.n, ref.bandwidth)
            assert_allclose(got.to_dense(), ref.to_dense(), rtol=0,
                            atol=1e-15 * np.abs(ref.band).max())

    def test_layout_bitwise_against_hand_banding(self):
        # full-space congruence bands and the trace-fit normal equations
        # equal the hand-written banding they replace byte for byte,
        # bandwidths included, and the dense form equals the diagonal
        # loop's.  A fold band scatters its signed float Gram terms in
        # another order than the symmetrised sparse product, so neither is
        # exact and each is held to the exact sum of those terms within
        # FOLD_WINDOW of its largest entry
        eps = np.finfo(float).eps
        checked = worst = 0
        for sp in _layout_sweep():
            for d, assemble in ((0, assemble_mass), (1, assemble_stiffness)):
                got = assemble(sp)
                bw, band = congruence_band(sp, d)
                assert (got.n, got.bandwidth) == (sp.n, bw)
                if sp.kind == "full":
                    assert got.band.tobytes() == band.tobytes()
                else:
                    gram = bspline_gram(sp.knots, sp.breaks, d)
                    for b in (got.band, band):
                        gap = exact_congruence_gap(sp, gram, b) \
                            / (eps * np.abs(b).max())
                        worst = max(worst, gap)
                        assert gap <= FOLD_WINDOW, (sp.kind, sp.p, sp.n, d)
                assert np.array_equal(got.to_dense(), band_to_dense(got))
            samples = poisson._quadrature_samples(sp)
            b = samples[2][0]
            got, ref = SymBandMatrix.from_sparse(b.T @ b), trace_fit_band(b)
            assert (got.n, got.bandwidth) == (ref.n, ref.bandwidth)
            assert got.band.tobytes() == ref.band.tobytes()
            xs, fit = poisson._trace_fit(samples)
            v = np.cos(3.0 * xs)
            assert np.array_equal(fit(v), ref.solve(b.T @ v, "reference"))
            checked += 1
        assert checked >= 120
        # the exact sums are not met exactly by either route
        assert worst > 0.0

    def test_derivative_order_out_of_range(self):
        sp = make_space("optimal", 3, 9, 0)
        with pytest.raises(ConfigError):
            bspline_gram(sp.knots, sp.breaks, 4)

    def test_dyadic_scaling(self):
        # interior entries scale like h for mass and 1/h for stiffness
        coarse = make_space("full", 3, 11, 0)
        fine = make_space("full", 3, 21, 0)
        mc = assemble_mass(coarse).to_dense()
        mf = assemble_mass(fine).to_dense()
        sc = assemble_stiffness(coarse).to_dense()
        sf = assemble_stiffness(fine).to_dense()
        ic, jf = 5, 10
        assert_allclose(mc[ic, ic] / mf[jf, jf], 2.0, rtol=1e-12)
        assert_allclose(sc[ic, ic] / sf[jf, jf], 0.5, rtol=1e-12)


class TestLoadsAndErrors:
    def test_load_against_bspline_route(self):
        sp = make_space("optimal", 4, 8, 2)
        f = np.cos
        via_full = sp.extraction @ bspline_load(sp.knots, sp.breaks, f)
        assert_allclose(assemble_load(sp, f), via_full, rtol=1e-15)

    def test_assignment_maps_match_sparse_products(self):
        # E x, E X and E^T y through the spaces' rows and signs equal the
        # csr extraction's products bitwise (np.array_equal: a zero may
        # differ in sign), as do the load and, on both axes, the 2D
        # Poisson solve's maps E1 B E2^T and E1^T U E2.  Dimensions 1-3
        # fold B-splines back across both ends, so that rows sum three or
        # more terms and the order of the sums shows.
        rng = np.random.default_rng(7)
        spaces = list(_layout_sweep(lambda p: (1, 2, 3) + _bitwise_sizes(p)))
        for sp, other in zip(spaces, spaces[1:] + spaces[:1]):
            e, nb = sp.extraction, sp.knots.num_basis
            x, y = rng.standard_normal(nb), rng.standard_normal(sp.n)
            xx = rng.standard_normal((nb, 5))
            yy = rng.standard_normal((sp.n, 5))
            assert np.array_equal(_fold(sp, x), e @ x)
            assert np.array_equal(_fold(sp, xx), e @ xx)
            assert np.array_equal(_unfold(sp, y), e.T @ y)
            assert np.array_equal(_unfold(sp, yy), e.T @ yy)
            assert np.array_equal(
                assemble_load(sp, np.cos),
                e @ bspline_load(sp.knots, sp.breaks, np.cos))
            e2, nb2 = other.extraction, other.knots.num_basis
            bb = rng.standard_normal((nb, nb2))
            u = rng.standard_normal((sp.n, other.n))
            assert np.array_equal(_fold(other, _fold(sp, bb).T).T,
                                  e @ bb @ e2.T)
            assert np.array_equal(_unfold(other, _unfold(sp, u).T).T,
                                  e.T @ u @ e2)

    def test_contractions_match_sampled_products(self):
        # Loads (orders 0 and 1) and L2/H1 error integrals of the element
        # contractions against products with two csr sample routes:
        # basis_samples at every point, which uses no class table (the
        # independent oracle), and grid_samples, whose values are the
        # class tables themselves (summation order only).  On every kind x
        # bc x p <= 10 layout at n = 25 and 97, and on breaks without
        # classes: the right end's p+1 elements and every element split in
        # two.  f = 2 + cos(3x) lies in [1, 3]; the coefficients c are
        # uniform in [-1, 1].
        #
        # Windows (eps = 2^-52), fixed before the first run:
        # - independent: a class table and the per-point triangle see the
        #   local coordinate, through the rounded points and knot
        #   differences, up to rel = 4 eps slope apart, slope =
        #   4 (p + 1) / h with h the shortest knot span, which also bounds
        #   |B^(d+1)| / |B^(d)|-scale growth: |delta B^(d)| <= slope^d
        #   rel.  The order-d load is off by at most max|f| (p + 1) hmax
        #   slope^d rel (hmax the longest span), the order-d error by at
        #   most (p + 1) slope^d rel; the same-table windows below come
        #   on top.
        # - same tables: each load entry sums K = (p + 1)(p + 3) products
        #   in another order, so |delta| <= 2 (K + 2) eps sum|terms|, and
        #   each spline value sums p + 1 products, so an error is off by
        #   at most 2 (p + 3) eps max_q sum_a |c_a B_a^(d)(x_q)|.
        eps = np.finfo(float).eps
        f = lambda x: 2.0 + np.cos(3.0 * x)
        zero, zero_d1 = (lambda x: 0.0 * x), (lambda x: 0.0 * x)
        rng = np.random.default_rng(23)
        cases = []
        for sp in _layout_sweep():
            cases.append((sp.knots, sp.breaks))
            if sp.n == 25:
                mid = 0.5 * (sp.breaks[:-1] + sp.breaks[1:])
                cases.append((sp.knots, sp.breaks[-(sp.p + 2):]))
                cases.append((sp.knots, np.sort(np.append(sp.breaks, mid))))
        classless = 0
        for kv, breaks in cases:
            p = kv.p
            spans = np.diff(kv.values)
            h, hmax = spans[spans > 0].min(), spans.max()
            slope = 4 * (p + 1) / h
            rel = 4 * eps * slope
            xs, ws = quadrature_grid(breaks, p + 3)
            classless += splines._classes(
                kv, breaks, splines._layout(kv)) is None
            point, table = basis_samples(kv, xs, 1), \
                grid_samples(kv, breaks, xs, 1)
            fw = f(xs) * ws
            c = rng.uniform(-1.0, 1.0, kv.num_basis)
            got_err = error_b_coefficients(kv, breaks, c, zero, zero_d1)
            for d in (0, 1):
                got = bspline_load(kv, breaks, f, d)
                terms = abs(point[d]).T @ np.abs(fw)
                same = 2 * ((p + 1) * (p + 3) + 2) * eps * terms
                indep = same + 3.0 * (p + 1) * hmax * slope ** d * rel
                assert np.all(np.abs(got - table[d].T @ fw) <= same)
                assert np.all(np.abs(got - point[d].T @ fw) <= indep)
                size = (abs(point[d]) @ np.abs(c)).max()
                same = 2 * (p + 3) * eps * size
                indep = same + (p + 1) * slope ** d * rel
                for b, window in ((table[d], same), (point[d], indep)):
                    want = np.sqrt(np.sum(ws * (b @ c) ** 2))
                    assert abs(got_err[d] - want) <= window, (p, d)
        assert classless >= 60

    def test_load_polynomial_exact(self):
        # x -> x against hats: interior entries h * x_i
        sp = make_space("full", 1, 5, 1)
        h = 1.0 / sp.n_el
        b = assemble_load(sp, lambda x: x)
        nodes = np.linspace(0, 1, sp.n_el + 1)
        assert_allclose(b[1:-1], h * nodes[1:-1], rtol=1e-14)

    def test_error_of_basis_function_is_its_norm(self):
        sp = make_space("optimal", 3, 9, 0)
        m = assemble_mass(sp).to_dense()
        s = assemble_stiffness(sp).to_dense()
        k = 4
        e = np.zeros(sp.n)
        e[k] = 1.0
        zero = lambda x: np.zeros_like(x)
        el2, eh1 = function_error(sp, e, zero, zero)
        assert_allclose(el2, np.sqrt(m[k, k]), rtol=1e-13)
        assert_allclose(eh1, np.sqrt(s[k, k]), rtol=1e-13)

    def test_error_vanishes_for_represented_function(self):
        sp = make_space("optimal", 5, 12, 0)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(sp.n)
        exact = lambda x: reduced_basis_matrix(sp, x, 0)[0] @ coeffs
        exact_d1 = lambda x: reduced_basis_matrix(sp, x, 1)[1] @ coeffs
        el2, eh1 = function_error(sp, coeffs, exact, exact_d1)
        assert el2 < 1e-13
        assert eh1 < 1e-11

    def test_wrong_length_rejected(self):
        sp = make_space("optimal", 3, 9, 0)
        with pytest.raises(ConfigError):
            function_error(sp, np.zeros(sp.n + 1), np.cos)

    def test_h1_error_none_without_derivative(self):
        sp = make_space("optimal", 3, 9, 0)
        el2, eh1 = function_error(sp, np.zeros(sp.n), np.cos)
        assert eh1 is None
        assert el2 == pytest.approx(np.sqrt(0.5 + np.sin(2) / 4), rel=1e-9)

"""Tests for Poisson solves, projections and the boundary-data correction."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from eigenspline import (
    ConfigError,
    ManufacturedProblem1D,
    ManufacturedProblem2D,
    NumericalError,
    SymBandMatrix,
    assemble_mass,
    assemble_stiffness,
    basis_samples,
    bspline_gram,
    fast_diagonalization_solve,
    get_preset,
    hermite_correction_1d,
    hermite_data_from_problem,
    l2_projection,
    make_space,
    reduced_basis_matrix,
    ritz_projection,
    solve_poisson_1d,
    solve_poisson_2d,
)
from eigenspline import assembly, poisson, splines
from eigenspline.assembly import quadrature_grid


def spline_values(kv, coeffs, xs, r=0):
    """Derivatives 0..r at xs of the spline with B-spline coefficients
    ``coeffs`` (trailing axes carry through): shape (r+1, len(xs), ...)."""
    return np.stack([b @ coeffs for b in basis_samples(kv, xs, r)])


def correction_2d(spec1, spec2, prob, samples=poisson._quadrature_samples):
    """The Boolean-sum correction of a corrected 2D solve on these spaces,
    its traces fitted on each direction's ``samples``."""
    return poisson._boundary_correction_2d(
        spec1, spec2, prob, poisson._per_direction(spec1, spec2, samples))


def per_point_samples(spec):
    """The grid, weights and B-spline samples of
    ``poisson._quadrature_samples``, sampled point by point."""
    xs, ws = quadrature_grid(spec.breaks, spec.p + 3)
    return xs, ws, basis_samples(spec.knots, xs, 1)


class TestPresets:
    @pytest.mark.parametrize("name", ["sin2pi", "ex73"])
    def test_validate_passes(self, name):
        get_preset(name).validate()

    def test_validate_2d_passes(self):
        get_preset("ex75").validate()

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            get_preset("nope")

    def test_validate_catches_wrong_pairs(self):
        bad = ManufacturedProblem1D(
            name="bad", f=lambda x: np.ones_like(x),
            u=lambda x: x * (1 - x), u_d1=lambda x: 1 - 2 * x)
        # -u'' = 2, not 1
        with pytest.raises(NumericalError):
            bad.validate()

    def test_validate_rejects_nan_source_1d(self):
        bad = ManufacturedProblem1D(
            name="nan", f=lambda x: np.full_like(x, np.nan),
            u=lambda x: x * (1 - x), u_d1=lambda x: 1 - 2 * x)
        with pytest.raises(NumericalError):
            bad.validate()

    def test_validate_rejects_nan_source_2d(self):
        def u_mixed(a1, a2, x1, x2):
            # u = x1 (1 - x1) x2 (1 - x2); only the two pure second
            # derivatives are asked for
            g = [lambda t: t * (1 - t), lambda t: 1 - 2 * t,
                 lambda t: -2.0 + 0 * t]
            return g[a1](x1) * g[a2](x2)

        bad = ManufacturedProblem2D(
            name="nan", f=lambda x1, x2: np.full_like(x1 * x2, np.nan),
            u_mixed=u_mixed)
        with pytest.raises(NumericalError):
            bad.validate()


class TestHermiteCorrection:
    def test_zero_data_gives_zero_spline(self):
        sp = make_space("optimal", 3, 8, 0)
        corr = hermite_correction_1d(sp, [0.0, 0.0], [0.0, 0.0])
        assert not corr.any()

    def test_quadratic_closed_form(self):
        # with s(0) = s'(0) = 0 and s''(0) = -1 the spline is -x^2/2 on
        # the whole first element
        sp = make_space("optimal", 2, 4, 0)
        corr = hermite_correction_1d(sp, [0.0, -1.0], [0.0, 0.0])
        xs = np.array([0.01, 0.04, 0.08])
        assert xs.max() < sp.breaks[1]
        vals = spline_values(sp.knots, corr, xs, r=2)
        assert_allclose(vals[0], -xs ** 2 / 2, atol=1e-15)
        assert_allclose(vals[1], -xs, atol=1e-14)
        assert_allclose(vals[2], -np.ones_like(xs), rtol=1e-13)
        # zero data at the far end keeps the tail identically zero
        tail = spline_values(sp.knots, corr, np.array([0.8, 1.0]))
        assert_allclose(tail[0], 0.0)

    @pytest.mark.parametrize("p,n", [(3, 9), (4, 9), (5, 9)])
    def test_interpolation_conditions(self, p, n):
        sp = make_space("optimal", p, n, 0)
        even, odd = range(0, p + 1, 2), range(1, p + 1, 2)
        rng = np.random.default_rng(p)
        left = rng.standard_normal(len(even))
        right = rng.standard_normal(len(even))
        left[0] = right[0] = 0.0
        corr = hermite_correction_1d(sp, left, right)
        at0 = spline_values(sp.knots, corr, np.array([0.0]), r=p)[:, 0]
        at1 = spline_values(sp.knots, corr, np.array([1.0]), r=p)[:, 0]
        scale = np.abs(corr).max()
        for k, a in enumerate(even):
            assert_allclose(at0[a], left[k], atol=1e-9 * max(1, scale))
            assert_allclose(at1[a], right[k], atol=1e-9 * max(1, scale))
        for a in odd:
            assert abs(at0[a]) <= 1e-7 * max(1.0, np.abs(at0).max())
            assert abs(at1[a]) <= 1e-7 * max(1.0, np.abs(at1).max())

    def test_rejects_overlapping_windows(self):
        sp = make_space("optimal", 4, 3, 0)
        assert sp.n_el == 5
        with pytest.raises(ConfigError):
            hermite_correction_1d(sp, [0, 0, 0], [0, 0, 0])

    def test_rejects_wrong_data_length(self):
        sp = make_space("optimal", 3, 9, 0)
        with pytest.raises(ConfigError):
            hermite_correction_1d(sp, [0.0], [0.0, 0.0])

    def test_data_from_problem(self):
        sp = make_space("optimal", 5, 9, 0)
        prob = get_preset("ex73")
        left, right = hermite_data_from_problem(sp, prob)
        assert left[0] == right[0] == 0.0
        assert_allclose(left[1], -prob.f(0.0))
        assert_allclose(right[1], -prob.f(1.0))
        assert_allclose(left[2], -float(prob.f_deriv(2, 0.0)))

    def test_data_requires_derivatives(self):
        sp = make_space("optimal", 3, 9, 0)
        prob = ManufacturedProblem1D(name="noderiv",
                                     f=lambda x: np.ones_like(x))
        with pytest.raises(ConfigError):
            hermite_data_from_problem(sp, prob)


class TestProjections:
    @pytest.mark.parametrize("kind,p", [("optimal", 3), ("reduced", 4),
                                        ("full", 3)])
    def test_l2_projection_reproduces_space(self, kind, p):
        sp = make_space(kind, p, 10, 0)
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(sp.n)
        f = lambda x: reduced_basis_matrix(sp, x, 0)[0] @ coeffs
        assert_allclose(l2_projection(sp, f), coeffs, atol=1e-9)

    def test_ritz_projection_reproduces_space(self):
        sp = make_space("optimal", 3, 10, 0)
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(sp.n)
        f_d1 = lambda x: reduced_basis_matrix(sp, x, 1)[1] @ coeffs
        assert_allclose(ritz_projection(sp, f_d1), coeffs, atol=1e-9)


def _nan(x):
    return np.full_like(np.asarray(x, dtype=float), np.nan)


def _zero_systems(kv, r, xs):
    """Stand-in for ``bspline_eval_batch`` whose endpoint systems are
    singular."""
    return None, np.zeros((len(xs), r + 1, kv.p + 1))


class TestFailureContract:
    # non-finite loads and failed factorizations surface as NumericalError,
    # never as scipy's ValueError or LinAlgError
    SOLVES = {
        "poisson": lambda sp, f: solve_poisson_1d(
            sp, ManufacturedProblem1D(name="nan", f=f)),
        "l2": l2_projection,
        "ritz": ritz_projection,
    }

    @pytest.mark.parametrize("which", sorted(SOLVES))
    def test_non_finite_load_rejected(self, which):
        sp = make_space("optimal", 3, 12, 0)
        with pytest.raises(NumericalError, match="not finite"):
            self.SOLVES[which](sp, _nan)

    @pytest.mark.parametrize("which", sorted(SOLVES))
    def test_infinite_load_rejected(self, which):
        # inf times the B-spline values (and the zeros among their
        # derivatives) in the element contractions, and infinities of
        # opposite signs folded onto one row, raise no RuntimeWarning; the
        # solve's finiteness check raises
        sp = make_space("optimal", 3, 12, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                self.SOLVES[which](sp, lambda x: np.full_like(x, np.inf))

    @pytest.mark.parametrize("which", sorted(SOLVES))
    def test_failed_factorization_mapped(self, which, monkeypatch):
        sp = make_space("optimal", 3, 12, 0)
        indefinite = SymBandMatrix(n=sp.n, bandwidth=0,
                                   band=-np.ones((1, sp.n)))
        for name in ("assemble_mass", "assemble_stiffness"):
            monkeypatch.setattr(f"eigenspline.poisson.{name}",
                                lambda spec: indefinite)
        # the Poisson solve reduces the stiffness band it also corrects with
        monkeypatch.setattr("eigenspline.poisson._congruence",
                            lambda spec, gram: indefinite)
        with pytest.raises(NumericalError, match="solve failed"):
            self.SOLVES[which](sp, np.cos)

    def test_non_finite_2d_source_rejected(self):
        sp = make_space("optimal", 3, 12, 0)
        prob = ManufacturedProblem2D(name="nan",
                                     f=lambda x1, x2: np.nan * x1 * x2,
                                     u=lambda x1, x2: x1 * x2)
        with pytest.raises(NumericalError, match="right-hand side"):
            solve_poisson_2d(sp, sp, prob)

    def test_non_finite_tensor_solution_rejected(self):
        # a finite right-hand side whose spectral coefficients overflow
        sp = make_space("optimal", 3, 12, 0)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="solution is not finite"):
            fast_diagonalization_solve(s, m, s, m,
                                       np.full((sp.n, sp.n), 1e308))


    # a finite solution of a huge source whose squared error overflows;
    # the error integral must raise, with no overflow warning escaping
    def test_overflowing_error_integral_rejected_1d(self):
        sp = make_space("optimal", 3, 12, 0)
        prob = ManufacturedProblem1D(
            name="huge", f=lambda x: np.full_like(x, 1e300),
            u=lambda x: x * (1.0 - x), u_d1=lambda x: 1.0 - 2.0 * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="error integral"):
                solve_poisson_1d(sp, prob)

    def test_overflowing_error_integral_rejected_2d(self, monkeypatch):
        # once in one row block, once across several
        sp = make_space("optimal", 3, 12, 0)
        prob = ManufacturedProblem2D(
            name="huge", f=lambda x1, x2: np.full_like(x1 * x2, 1e300),
            u=lambda x1, x2: x1 * (1.0 - x1) * x2 * (1.0 - x2))
        for block in (poisson.ROW_BLOCK, 7):
            monkeypatch.setattr(poisson, "ROW_BLOCK", block)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="error integral"):
                    solve_poisson_2d(sp, sp, prob)

    def test_singular_endpoint_system_mapped(self, monkeypatch):
        monkeypatch.setattr(poisson, "bspline_eval_batch", _zero_systems)
        sp = make_space("optimal", 3, 12, 0)
        with pytest.raises(NumericalError, match="endpoint system"):
            hermite_correction_1d(sp, [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(NumericalError, match="endpoint system"):
            correction_2d(sp, sp, get_preset("ex75"))

    def test_non_finite_trace_fit_rejected(self):
        prob = get_preset("ex75")
        nan_traces = ManufacturedProblem2D(
            name="nan", f=prob.f,
            u_mixed=lambda a1, a2, x1, x2: np.nan * prob.u_mixed(a1, a2,
                                                                 x1, x2))
        sp = make_space("optimal", 3, 12, 0)
        with pytest.raises(NumericalError, match="trace fit"):
            correction_2d(sp, sp, nan_traces)


class TestPoisson1D:
    def test_solution_is_ritz_projection(self):
        # integration by parts: the Galerkin solution with load (f, v)
        # equals the H1 projection driven by u'
        sp = make_space("optimal", 3, 16, 0)
        prob = get_preset("sin2pi")
        sol = solve_poisson_1d(sp, prob)
        ritz = ritz_projection(sp, prob.u_d1)
        assert_allclose(sol.coeffs, ritz, atol=1e-10)

    def test_errors_reported(self):
        sp = make_space("optimal", 3, 16, 0)
        sol = solve_poisson_1d(sp, get_preset("sin2pi"))
        assert 0 < sol.err_l2 < 1e-4
        assert 0 < sol.err_h1 < 1e-2
        assert sol.correction is None

    def test_error_none_without_reference(self):
        sp = make_space("optimal", 3, 16, 0)
        prob = ManufacturedProblem1D(name="blind",
                                     f=lambda x: np.ones_like(x))
        sol = solve_poisson_1d(sp, prob)
        assert sol.err_l2 is None and sol.err_h1 is None

    def test_rejects_non_dirichlet(self):
        sp = make_space("optimal", 3, 16, 1)
        with pytest.raises(ConfigError):
            solve_poisson_1d(sp, get_preset("sin2pi"))

    @pytest.mark.parametrize("correct", [False, True])
    def test_one_grid_and_no_sample_matrix(self, correct, monkeypatch):
        # the load and both error integrals share one p+3-point grid of
        # class tables: the Cox-de Boor triangle runs for the Gram band,
        # for that grid and, corrected, once for both endpoint systems.
        # No csr sample matrix is built; the only sparse object is the
        # correction product's diagonal-format band.
        sp = make_space("optimal", 4, 40, 0)
        prob = get_preset("ex73")
        want = solve_poisson_1d(sp, prob, correct=correct)
        runs, made = [], []
        real_ders, real_init = splines._ders_basis, \
            scipy.sparse._base._spbase.__init__

        def counting(kv, spans, xs, r):
            runs.append(r)
            return real_ders(kv, spans, xs, r)

        def recording(self, *args, **kwargs):
            made.append(type(self).__name__)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(splines, "_ders_basis", counting)
        monkeypatch.setattr(scipy.sparse._base._spbase, "__init__",
                            recording)
        got = solve_poisson_1d(sp, prob, correct=correct)
        assert runs == [1, 1] + [sp.p] * correct
        assert set(made) <= {"dia_array"} and (correct or not made)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert (got.err_l2, got.err_h1) == (want.err_l2, want.err_h1)

    def test_vanishing_data_correction_is_noop(self):
        # with endpoint data that are exact zeros the corrected path must
        # reproduce the plain one bit for bit (sin(2 pi x) has vanishing
        # even derivatives there; snapping removes the float noise of
        # sin(2 pi) ~ 1e-16)
        sp = make_space("optimal", 3, 16, 0)
        base = get_preset("sin2pi")
        snapped = ManufacturedProblem1D(
            name="snapped", f=base.f,
            f_deriv=lambda k, x: 0.0 if x in (0.0, 1.0)
            else base.f_deriv(k, x),
            u=base.u, u_d1=base.u_d1)
        plain = solve_poisson_1d(sp, snapped)
        corrected = solve_poisson_1d(sp, snapped, correct=True)
        assert np.array_equal(plain.coeffs, corrected.coeffs)
        assert not corrected.correction.any()

    def test_correction_improves_capped_problem(self):
        sp = make_space("optimal", 3, 32, 0)
        prob = get_preset("ex73")
        plain = solve_poisson_1d(sp, prob)
        corrected = solve_poisson_1d(sp, prob, correct=True)
        assert corrected.err_l2 < plain.err_l2 / 5

    def test_full_space_needs_no_correction(self):
        sp = make_space("full", 3, 32, 0)
        prob = get_preset("ex73")
        sol = solve_poisson_1d(sp, prob)
        opt = solve_poisson_1d(make_space("optimal", 3, 32, 0), prob)
        assert sol.err_l2 < opt.err_l2


    @pytest.mark.parametrize("kind,p,n", [("optimal", 3, 40),
                                          ("optimal", 4, 33),
                                          ("reduced", 4, 30),
                                          ("full", 5, 40)])
    def test_corrected_solve_takes_one_stiffness_band(self, kind, p, n,
                                                      monkeypatch):
        # the reduced stiffness and the correction's product share one
        # B-spline stiffness band (the parent evaluated it twice), with
        # the bits of two separate evaluations
        sp = make_space(kind, p, n, 0)
        prob = get_preset("ex73")
        corr = hermite_correction_1d(sp, *hermite_data_from_problem(sp, prob))
        g1 = SymBandMatrix(n=sp.knots.num_basis, bandwidth=p,
                           band=bspline_gram(sp.knots, sp.breaks, 1))
        bb = assembly.bspline_load(sp.knots, sp.breaks, prob.f) \
            - g1.matvec(corr)
        coeffs = assemble_stiffness(sp).solve(sp.extraction @ bb, "stiffness")
        bands = []
        real = assembly._gram_bands

        def counting(*args, **kwargs):
            bands.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(assembly, "_gram_bands", counting)
        sol = solve_poisson_1d(sp, prob, correct=True)
        assert bands == [(1,)]
        assert np.array_equal(sol.coeffs, coeffs)
        assert np.array_equal(sol.correction, corr)


class TestFastDiagonalization:
    def test_solves_kron_system(self):
        sp1 = make_space("optimal", 2, 6, 0)
        sp2 = make_space("optimal", 3, 5, 0)
        s1, m1 = assemble_stiffness(sp1), assemble_mass(sp1)
        s2, m2 = assemble_stiffness(sp2), assemble_mass(sp2)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal((sp1.n, sp2.n))
        u = fast_diagonalization_solve(s1, m1, s2, m2, rhs)
        big = np.kron(s1.to_dense(), m2.to_dense()) \
            + np.kron(m1.to_dense(), s2.to_dense())
        assert_allclose(big @ u.ravel(), rhs.ravel(),
                        atol=1e-9 * np.linalg.norm(big))

    def test_rejects_singular_pencil(self):
        sp = make_space("optimal", 2, 8, 1)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        with pytest.raises(NumericalError):
            fast_diagonalization_solve(s, m, s, m, np.ones((8, 8)))


def full_grid_solve_2d(spec1, spec2, prob, correct):
    """Oracle for solve_poisson_2d: (coeffs, err_l2, err_h1) with the load
    and the error integrals taken over the whole nq1 x nq2 Gauss grid at
    once, and the correction load through dense Gram matrices.  Its
    B-splines are sampled point by point, not from the class tables of the
    solve it checks."""
    (xs1, ws1, phi1), (xs2, ws2, phi2) = (per_point_samples(sp)
                                          for sp in (spec1, spec2))
    grid = (xs1[:, None], xs2[None, :])
    wgt = ws1[:, None] * ws2[None, :]
    bb = phi1[0].T @ (wgt * prob.f(*grid)) @ phi2[0]
    corr = 0.0
    if correct:
        corr = correction_2d(spec1, spec2, prob, per_point_samples)
        g1s, g1m, g2s, g2m = (
            poisson._band(sp, bspline_gram(sp.knots, sp.breaks, d)).to_dense()
            for sp in (spec1, spec2) for d in (1, 0))
        bb = bb - g1s @ corr @ g2m - g1m @ corr @ g2s
    u = fast_diagonalization_solve(
        assemble_stiffness(spec1), assemble_mass(spec1),
        assemble_stiffness(spec2), assemble_mass(spec2),
        spec1.extraction @ bb @ spec2.extraction.T)
    ctot = spec1.extraction.T @ u @ spec2.extraction + corr

    def sq(fn, d, e):
        return (fn(*grid) - phi1[d] @ ctot @ phi2[e].T) ** 2

    return (u, np.sqrt(np.sum(wgt * sq(prob.u, 0, 0))),
            np.sqrt(np.sum(wgt * (sq(prob.u_x1, 1, 0) + sq(prob.u_x2, 0, 1)))))


def cubic_bubble_problem_2d():
    # u = q(x1) q(x2) with q = t^2 - t^3: all traces are cubics, so the
    # least-squares trace fits inside a p >= 3 space are exact and the
    # correction surface must reproduce the boundary jets to roundoff
    def q(k, t):
        t = np.asarray(t, dtype=float)
        if k == 0:
            return t ** 2 - t ** 3
        if k == 1:
            return 2 * t - 3 * t ** 2
        if k == 2:
            return 2 - 6 * t
        if k == 3:
            return -6.0 * np.ones_like(t)
        return np.zeros_like(t)

    from eigenspline import ManufacturedProblem2D
    return ManufacturedProblem2D(
        name="cubic-bubble",
        f=lambda x1, x2: -(q(2, x1) * q(0, x2) + q(0, x1) * q(2, x2)),
        u=lambda x1, x2: q(0, x1) * q(0, x2),
        u_x1=lambda x1, x2: q(1, x1) * q(0, x2),
        u_x2=lambda x1, x2: q(0, x1) * q(1, x2),
        u_mixed=lambda a1, a2, x1, x2: q(a1, x1) * q(a2, x2))


class TestPoisson2D:
    def test_correction_matches_polynomial_traces(self):
        # square and mixed (p, n): the surface must vanish on every edge
        # and carry the exact second pure-normal trace there, which checks
        # both directions' terms and the corner term of the Boolean sum
        prob = cubic_bubble_problem_2d()
        prob.validate()
        t = np.linspace(0.0, 1.0, 33)
        for dims in (((3, 9), (3, 9)), ((3, 9), (4, 11))):
            sp1, sp2 = (make_space("optimal", p, n, 0) for p, n in dims)
            c = correction_2d(sp1, sp2, prob)
            for z in (0.0, 1.0):
                # x1 = z: normal derivatives in x1, then values along x2
                normal = spline_values(sp1.knots, c, [z], r=2)[:, 0]
                edge = spline_values(sp2.knots, normal.T, t)[0].T
                assert_allclose(edge[0], 0.0, atol=1e-10)
                assert_allclose(edge[2], prob.u_mixed(2, 0, z, t),
                                rtol=1e-9, atol=1e-9)
                # x2 = z
                normal = spline_values(sp2.knots, c.T, [z], r=2)[:, 0]
                edge = spline_values(sp1.knots, normal.T, t)[0].T
                assert_allclose(edge[0], 0.0, atol=1e-10)
                assert_allclose(edge[2], prob.u_mixed(0, 2, t, z),
                                rtol=1e-9, atol=1e-9)

    def test_corrected_solution_beats_plain(self):
        sp = make_space("optimal", 3, 12, 0)
        prob = get_preset("ex75")
        plain = solve_poisson_2d(sp, sp, prob)
        corrected = solve_poisson_2d(sp, sp, prob, correct=True)
        assert corrected.err_l2 < plain.err_l2 / 3
        assert corrected.err_h1 < plain.err_h1

    def test_rejects_non_dirichlet(self):
        good = make_space("optimal", 3, 12, 0)
        bad = make_space("optimal", 3, 12, 1)
        with pytest.raises(ConfigError):
            solve_poisson_2d(good, bad, get_preset("ex75"))

    @pytest.mark.parametrize("correct", [False, True])
    def test_square_problem_solved_once(self, correct, monkeypatch):
        # one space object for both directions: one assembly (one Gram
        # evaluation for the pencil and the correction alike), one sample
        # grid, one trace fit and one eigensolve, with the same bits as
        # two separately built copies of the space
        prob = get_preset("ex75")
        two = solve_poisson_2d(make_space("optimal", 3, 12, 0),
                               make_space("optimal", 3, 12, 0), prob,
                               correct=correct)
        # the Gram evaluation and the congruences run inside
        # assembly._pencil, so they are counted where it looks them up
        modules = {"generalized_eigen_sym": poisson, "_gram_bands": assembly,
                   "_congruence": assembly, "grid_samples": poisson,
                   "bspline_gram": poisson}
        calls = dict.fromkeys(modules, 0)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name, module in modules.items():
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        sp = make_space("optimal", 3, 12, 0)
        one = solve_poisson_2d(sp, sp, prob, correct=correct)
        assert calls == {"generalized_eigen_sym": 1, "_gram_bands": 1,
                         "_congruence": 2,
                         "grid_samples": 1,
                         "bspline_gram": 0}
        assert np.array_equal(one.coeffs, two.coeffs)
        assert (one.err_l2, one.err_h1) == (two.err_l2, two.err_h1)
        if correct:
            assert np.array_equal(one.correction, two.correction)

    def test_broadcast_and_view_samples_kept(self):
        # The blocks are weighted and differenced in the arrays the problem
        # returns; a source returning a smaller broadcastable result, or a
        # view of the grid itself, must give the full-shape function's bits
        # and leave the grid intact.  Holds at the parent too, whose
        # out-of-place arithmetic broadcast such results.
        sp = make_space("optimal", 3, 12, 0)
        full = ManufacturedProblem2D(name="full",
                                     f=lambda x1, x2: np.exp(x1) + 0.0 * x2,
                                     u=lambda x1, x2: x2 + 0.0 * x1)
        short = ManufacturedProblem2D(name="short",
                                      f=lambda x1, x2: np.exp(x1),
                                      u=lambda x1, x2: x2)
        want = solve_poisson_2d(sp, sp, full)
        for _ in range(2):
            got = solve_poisson_2d(sp, sp, short)
            assert np.array_equal(got.coeffs, want.coeffs)
            assert got.err_l2 == want.err_l2

    def test_anisotropic_degrees(self):
        sp1 = make_space("optimal", 2, 10, 0)
        sp2 = make_space("optimal", 3, 9, 0)
        sol = solve_poisson_2d(sp1, sp2, get_preset("ex75"), correct=True)
        assert sol.coeffs.shape == (10, 9)
        assert sol.err_l2 < 1e-3

    @pytest.mark.parametrize("correct", [False, True])
    @pytest.mark.parametrize("block", [7, 10 ** 6])
    def test_row_blocks_match_full_grid(self, block, correct, monkeypatch):
        # mixed degrees, non-square: 7-row blocks straddle the 6-point
        # elements of direction 1 and leave a partial last block; 10**6
        # rows make one block
        sp1 = make_space("optimal", 3, 40, 0)
        sp2 = make_space("optimal", 4, 57, 0)
        nq1 = poisson._quadrature_samples(sp1)[0].size
        assert nq1 % 7 and (sp1.p + 3) % 7 and nq1 < 10 ** 6
        prob = get_preset("ex75")
        monkeypatch.setattr(poisson, "ROW_BLOCK", block)
        coeffs, err_l2, err_h1 = full_grid_solve_2d(sp1, sp2, prob, correct)
        sol = solve_poisson_2d(sp1, sp2, prob, correct=correct)
        assert np.max(np.abs(sol.coeffs - coeffs)) \
            <= 1e-12 * np.max(np.abs(coeffs))
        # The corrected errors sit about 1e-7 below |u|, so the round-off
        # of the coefficients alone moves them by up to ~1e-11 relative.
        # The error integrals are therefore compared on the oracle's
        # coefficients and on its B-spline samples, taken point by point
        # where the solve takes class tables (they differ by about eps/h
        # of each column's maximum, and the correction is fitted on them):
        # then only the blocking of the sums differs.
        monkeypatch.setattr(poisson, "fast_diagonalization_solve",
                            lambda *args: coeffs)
        monkeypatch.setattr(poisson, "_quadrature_samples",
                            per_point_samples)
        sol = solve_poisson_2d(sp1, sp2, prob, correct=correct)
        assert sol.err_l2 == pytest.approx(err_l2, rel=1e-12, abs=0.0)
        assert sol.err_h1 == pytest.approx(err_h1, rel=1e-12, abs=0.0)

    def test_working_memory_below_one_grid(self):
        # the row blocks never hold a full nq1 x nq2 grid: the traced peak
        # of a corrected solve stays below one such float64 array
        sp = make_space("optimal", 4, 255, 0)
        prob = get_preset("ex75")
        solve_poisson_2d(sp, sp, prob, correct=True)
        nq = poisson._quadrature_samples(sp)[0].size
        tracemalloc.start()
        try:
            solve_poisson_2d(sp, sp, prob, correct=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nq * nq * 8

    def test_error_pass_holds_three_row_blocks(self, monkeypatch):
        # K = 3 arrays of (nq2 x ROW_BLOCK) alive at once, read off the
        # code: the H1 block holds its two residuals, each sampled into a
        # fresh array and overwritten in place, plus the discrete part of
        # the second while it is subtracted; the squares are added and
        # weighted in place, and a block's samples are freed before the
        # next block's are formed.  Besides those, up to three (ROW_BLOCK x
        # nb2) arrays: the block's coefficient product, its transposed
        # copy and the sparse row slice.
        sp = make_space("optimal", 4, 255, 0)
        nq = poisson._quadrature_samples(sp)[0].size
        rows = poisson.ROW_BLOCK
        bound = 3 * nq * rows * 8 + 3 * rows * sp.knots.num_basis * 8
        real = poisson._error_norm
        peaks = {}

        def traced(what, blocks):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = real(what, blocks)
            peaks[what] = tracemalloc.get_traced_memory()[1] - start
            return out

        monkeypatch.setattr(poisson, "_error_norm", traced)
        tracemalloc.start()
        try:
            solve_poisson_2d(sp, sp, get_preset("ex75"), correct=True)
        finally:
            tracemalloc.stop()
        assert set(peaks) == {"L2", "H1"}
        assert max(peaks.values()) <= bound, (peaks, bound)

    def test_trace_fit_is_least_squares(self):
        sp = make_space("optimal", 4, 20, 0)
        xs, fit = poisson._trace_fit(poisson._quadrature_samples(sp))
        values = np.sin(3.0 * xs) + xs ** 5
        b = basis_samples(sp.knots, xs, 0)[0].toarray()
        assert_allclose(fit(values), np.linalg.lstsq(b, values)[0],
                        rtol=1e-10, atol=1e-12)

"""Tests for spectra, mode errors, bounds and outlier counting."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenspline import (
    ConfigError,
    assemble_mass,
    assemble_stiffness,
    eigval_upper_bound,
    eigval_upper_bound_sharp,
    exact_eigenfunction,
    exact_frequencies,
    generalized_eigen_sym,
    make_space,
    mode_errors,
    mode_errors_2d,
    outlier_count,
    reduced_basis_matrix,
    spectrum_1d,
    spectrum_2d,
)
from eigenspline import spectrum
from eigenspline.assembly import quadrature_grid
from eigenspline.spectrum import EFUN_BLOCK, collate_2d
from eigenspline.splines import basis_samples


def _dense_mode_errors(sp, vectors):
    # independent route: the dense reduced basis sampled on the p+3-point
    # grid times all eigenvectors, against the closed-form eigenfunctions
    xs, ws = quadrature_grid(sp.breaks, sp.p + 3)
    uh = reduced_basis_matrix(sp, xs, r=0)[0] @ vectors
    exact = np.column_stack([exact_eigenfunction(sp.bc, l)[0](xs)
                             for l in range(1, sp.n + 1)])
    overlaps = np.einsum("qk,qk->k", exact, uh * ws[:, None])
    diff = exact - uh
    return overlaps, np.sqrt(np.einsum("qk,qk->k", diff, diff * ws[:, None]))


class TestExactSolution:
    def test_frequencies(self):
        l = np.arange(1, 6)
        assert_allclose(exact_frequencies(0, 5), l * np.pi)
        assert_allclose(exact_frequencies(1, 5), (l - 1) * np.pi)
        assert_allclose(exact_frequencies(2, 5), (l - 0.5) * np.pi)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            exact_frequencies(0, 0)

    @pytest.mark.parametrize("bc,l", [(0, 1), (0, 4), (1, 1), (1, 3), (2, 2)])
    def test_eigenfunction_unit_norm(self, bc, l):
        u, _ = exact_eigenfunction(bc, l)
        xs, ws = quadrature_grid(np.linspace(0, 1, 200), 6)
        assert_allclose(np.sum(ws * u(xs) ** 2), 1.0, rtol=1e-10)

    @pytest.mark.parametrize("bc,l", [(0, 2), (1, 3), (2, 1)])
    def test_eigenfunction_solves_ode(self, bc, l):
        u, du = exact_eigenfunction(bc, l)
        w = exact_frequencies(bc, l)[-1]
        xs = np.linspace(0.05, 0.95, 11)
        d = 1e-5
        lap = (u(xs + d) - 2 * u(xs) + u(xs - d)) / d ** 2
        assert_allclose(-lap, w ** 2 * u(xs), rtol=1e-4, atol=1e-4)
        fd = (u(xs + d) - u(xs - d)) / (2 * d)
        assert_allclose(fd, du(xs), rtol=1e-6, atol=1e-6)

    def test_first_neumann_mode_constant(self):
        u, du = exact_eigenfunction(1, 1)
        xs = np.linspace(0, 1, 7)
        assert_allclose(u(xs), 1.0)
        assert_allclose(du(xs), 0.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            exact_eigenfunction(0, 0)


class TestSpectrum1D:
    @pytest.mark.parametrize("kind,p,n,bc", [
        ("optimal", 2, 12, 0), ("optimal", 3, 12, 1), ("optimal", 4, 12, 2),
        ("reduced", 4, 12, 0), ("full", 3, 12, 0),
    ])
    def test_invariants(self, kind, p, n, bc):
        sp = make_space(kind, p, n, bc)
        spec = spectrum_1d(sp)
        s = assemble_stiffness(sp).to_dense()
        m = assemble_mass(sp).to_dense()
        # M-orthonormal eigenvectors with nonnegative exact overlap
        assert_allclose(spec.vectors.T @ m @ spec.vectors, np.eye(n),
                        atol=1e-9)
        assert np.all(spec.overlaps >= 0.0)
        # small relative residual per mode
        res = s @ spec.vectors - m @ spec.vectors * spec.eigenvalues
        assert np.linalg.norm(res, axis=0).max() <= 1e-9 * np.linalg.norm(s)
        assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_first_mode_accurate(self):
        sp = make_space("full", 2, 20, 0)
        spec = spectrum_1d(sp)
        assert_allclose(spec.frequencies[0], np.pi, rtol=1e-5)

    def test_function_error_identity(self):
        # unit norms on both sides make |u - uh|^2 = 2 (1 - overlap)
        sp = make_space("optimal", 3, 12, 0)
        spec = spectrum_1d(sp)
        lhs = spec.e_fun[:10] ** 2
        rhs = 2.0 * (1.0 - spec.overlaps[:10])
        assert_allclose(lhs, rhs, atol=1e-6)

    def test_neumann_zero_mode(self):
        sp = make_space("optimal", 3, 10, 1)
        rep = mode_errors(spectrum_1d(sp))
        assert rep.zero_mode[0] and not rep.zero_mode[1:].any()
        assert rep.e_freq[0] == rep.omega_h[0]
        assert rep.e_freq[0] < 1e-6


class TestEigenfunctionErrorPass:
    @pytest.mark.parametrize("kind,p,n,bc", [
        ("full", 3, 20, 0), ("full", 4, 20, 1), ("full", 5, 20, 2),
        ("optimal", 3, 20, 0), ("optimal", 4, 20, 1), ("optimal", 5, 20, 2),
        ("reduced", 4, 20, 0), ("reduced", 2, 2, 0),
        # endpoint windows overlap: one global null space
        ("optimal", 5, 3, 1), ("optimal", 6, 4, 2),
        # mode counts around the block size
        ("optimal", 3, EFUN_BLOCK - 1, 0), ("optimal", 4, EFUN_BLOCK, 1),
        ("full", 3, EFUN_BLOCK + 1, 2), ("optimal", 5, 2 * EFUN_BLOCK + 7, 1),
        ("full", 2, 2 * EFUN_BLOCK + 7, 0),
    ])
    def test_matches_dense_route(self, kind, p, n, bc):
        sp = make_space(kind, p, n, bc)
        spec = spectrum_1d(sp)
        overlaps, e_fun = _dense_mode_errors(sp, spec.vectors)
        assert_allclose(spec.e_fun, e_fun, rtol=0, atol=1e-13)
        assert_allclose(spec.overlaps, overlaps, rtol=0, atol=1e-13)
        # every returned mode carries the sign of its exact eigenfunction
        assert np.all(spec.overlaps >= 0.0)

    def test_one_basis_evaluation_and_no_dense_basis(self, monkeypatch):
        evals, dense = [], []

        def counting(*args, **kwargs):
            evals.append(args)
            return basis_samples(*args, **kwargs)

        def forbidden(*args, **kwargs):
            dense.append(args)
            return reduced_basis_matrix(*args, **kwargs)

        monkeypatch.setattr("eigenspline.spectrum.basis_samples", counting)
        for target in ("eigenspline.spaces", "eigenspline.spectrum"):
            monkeypatch.setattr(f"{target}.reduced_basis_matrix", forbidden,
                                raising=False)
        sp = make_space("optimal", 5, 2 * EFUN_BLOCK + 7, 0)
        spectrum_1d(sp)
        assert len(evals) == 1
        assert evals[0][2] == 0
        assert evals[0][1].size == sp.n_el * (sp.p + 3)
        assert not dense

    def test_working_memory_far_below_dense_samples(self, monkeypatch):
        # the dense eigensolve is solved outside the measurement; what is
        # left is assembly plus the error pass, which must hold no
        # (quadrature points x n) array
        sp = make_space("optimal", 5, 1000, 0)
        pair = generalized_eigen_sym(assemble_stiffness(sp),
                                     assemble_mass(sp))
        monkeypatch.setattr("eigenspline.spectrum.generalized_eigen_sym",
                            lambda s, m: pair)
        tracemalloc.start()
        try:
            spectrum_1d(sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_array = 8 * sp.n_el * (sp.p + 3) * sp.n
        assert peak < one_array / 3


class TestModeErrors:
    @pytest.mark.parametrize("p,bc", [(2, 0), (3, 0), (3, 1), (4, 2)])
    def test_optimal_bound_holds(self, p, bc):
        sp = make_space("optimal", p, 14, bc)
        rep = mode_errors(spectrum_1d(sp))
        ok = ~rep.zero_mode
        assert np.all(rep.e_freq[ok] >= -1e-9)
        assert np.all(rep.e_freq[ok] <= rep.bound[ok] + 1e-12)

    def test_non_optimal_has_nan_bound(self):
        sp = make_space("full", 3, 12, 0)
        rep = mode_errors(spectrum_1d(sp))
        assert np.isnan(rep.bound).all()

    @pytest.mark.parametrize("bc", [0, 1, 2])
    def test_bound_column_takes_frequencies_once(self, bc, monkeypatch):
        # the same per-mode arithmetic as eigval_upper_bound, bit for bit,
        # from one exact_frequencies call per spectrum instead of one per
        # mode (plus the one for the exact column)
        sp = make_space("optimal", 4, 30, bc)
        sp1 = spectrum_1d(sp)
        expected = [eigval_upper_bound(l, 30, 4, bc) for l in range(1, 31)]
        sp2 = spectrum_2d(sp, make_space("optimal", 3, 20, bc))
        calls = []

        def counting(*args):
            calls.append(args)
            return exact_frequencies(*args)

        monkeypatch.setattr(spectrum, "exact_frequencies", counting)
        assert mode_errors(sp1).bound.tolist() == expected
        assert len(calls) == 2
        del calls[:]
        assert np.isfinite(mode_errors_2d(sp2).bound).any()
        assert len(calls) == 4

    def test_bound_monotone_in_mode(self):
        b = [eigval_upper_bound(l, 20, 3, 0) for l in range(1, 21)]
        assert np.all(np.diff(b) > 0)

    def test_bound_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            eigval_upper_bound(0, 10, 3, 0)
        with pytest.raises(ConfigError):
            eigval_upper_bound(11, 10, 3, 0)

    def test_sharp_bound_improves_where_valid(self):
        b, ok = eigval_upper_bound_sharp(1, 20, 3, 0)
        assert ok
        assert b < eigval_upper_bound(1, 20, 3, 0)

    def test_sharp_bound_flags(self):
        _, ok = eigval_upper_bound_sharp(2, 20, 3, 1)
        assert not ok
        _, ok = eigval_upper_bound_sharp(20, 20, 3, 0)
        assert not ok


class TestOutliers:
    def test_linear_full_space_is_clean(self):
        sp = make_space("full", 1, 30, 0)
        assert outlier_count(mode_errors(spectrum_1d(sp))) == 0

    @pytest.mark.parametrize("n", [25, 50])
    def test_full_quintic_count(self, n):
        sp = make_space("full", 5, n, 0)
        assert outlier_count(mode_errors(spectrum_1d(sp))) == 4

    @pytest.mark.parametrize("kind", ["optimal", "reduced"])
    def test_outlier_free_spaces(self, kind):
        sp = make_space(kind, 4, 60, 0)
        assert outlier_count(mode_errors(spectrum_1d(sp))) == 0

    def test_requires_long_branch(self):
        sp = make_space("optimal", 5, 10, 0)
        with pytest.raises(ConfigError):
            outlier_count(mode_errors(spectrum_1d(sp)))


class TestSpectrum2D:
    def test_sorted_by_exact_frequency(self):
        sp = spectrum_2d(make_space("optimal", 2, 8, 0),
                         make_space("optimal", 3, 7, 0))
        assert np.all(np.diff(sp.omega_exact) >= 0)
        assert sp.l1.size == 8 * 7

    def test_squared_frequency_identity_bitwise(self):
        s1 = spectrum_1d(make_space("optimal", 3, 7, 0))
        s2 = spectrum_1d(make_space("optimal", 3, 6, 2))
        sp = collate_2d(s1, s2)
        recomputed = s1.eigenvalues[sp.l1 - 1] + s2.eigenvalues[sp.l2 - 1]
        assert np.array_equal(sp.omega_sq_h, recomputed)
        assert_allclose(sp.omega_h, np.sqrt(np.clip(sp.omega_sq_h, 0, None)))

    def test_matches_kronecker_pencil(self):
        # independent route: assemble the full 2D pencil with Kronecker
        # products and solve it densely
        spx = make_space("optimal", 2, 6, 0)
        spy = make_space("optimal", 3, 5, 0)
        sp = spectrum_2d(spx, spy)
        s1, m1 = (a.to_dense() for a in (assemble_stiffness(spx),
                                         assemble_mass(spx)))
        s2, m2 = (a.to_dense() for a in (assemble_stiffness(spy),
                                         assemble_mass(spy)))
        big_s = np.kron(s1, m2) + np.kron(m1, s2)
        big_m = np.kron(m1, m2)
        w, _ = generalized_eigen_sym(big_s, big_m)
        assert_allclose(np.sort(sp.omega_sq_h), w, rtol=1e-10, atol=1e-8)

    def test_mode_error_identity_vs_tensor_quadrature(self):
        # recompute the product-mode L2 error on an explicit 2D Gauss grid
        spx = make_space("optimal", 2, 6, 0)
        spy = make_space("optimal", 2, 5, 0)
        sp = spectrum_2d(spx, spy)
        rep = mode_errors_2d(sp)
        xs, wx = quadrature_grid(spx.breaks, spx.p + 3)
        ys, wy = quadrature_grid(spy.breaks, spy.p + 3)
        bx = reduced_basis_matrix(spx, xs, r=0)[0]
        by = reduced_basis_matrix(spy, ys, r=0)[0]
        for k in (0, 3, 11):
            l1, l2 = rep.ls[0][k], rep.ls[1][k]
            u1 = exact_eigenfunction(spx.bc, l1)[0](xs)
            u2 = exact_eigenfunction(spy.bc, l2)[0](ys)
            uh1 = bx @ sp.sp1.vectors[:, l1 - 1]
            uh2 = by @ sp.sp2.vectors[:, l2 - 1]
            diff = np.outer(u1, u2) - np.outer(uh1, uh2)
            direct = np.sqrt(np.einsum("xy,x,y->", diff ** 2, wx, wy))
            assert_allclose(rep.e_fun[k], direct, rtol=1e-6, atol=1e-9)

    def test_same_space_is_solved_once(self, monkeypatch):
        calls = []
        real = spectrum_1d

        def counting(spec):
            calls.append(spec)
            return real(spec)

        spec = make_space("optimal", 3, 9, 1)
        separate = mode_errors_2d(spectrum_2d(make_space("optimal", 3, 9, 1),
                                              make_space("optimal", 3, 9, 1)))
        monkeypatch.setattr("eigenspline.spectrum.spectrum_1d", counting)
        shared = spectrum_2d(spec, spec)
        assert len(calls) == 1 and shared.sp1 is shared.sp2
        rep = mode_errors_2d(shared)
        for name in ("ls", "omega_exact", "omega_h", "e_freq", "e_fun",
                     "bound", "zero_mode"):
            assert np.array_equal(getattr(rep, name), getattr(separate, name),
                                  equal_nan=name == "bound"), name

    def test_2d_bound_holds_for_optimal(self):
        sp = spectrum_2d(make_space("optimal", 3, 9, 0),
                         make_space("optimal", 3, 9, 0))
        rep = mode_errors_2d(sp)
        ok = ~rep.zero_mode & np.isfinite(rep.bound)
        assert np.all(rep.e_freq[ok] <= rep.bound[ok] + 1e-12)
        assert np.all(rep.e_freq[ok] >= -1e-9)

    def test_2d_outlier_counts(self):
        opt = make_space("optimal", 3, 25, 0)
        assert outlier_count(mode_errors_2d(spectrum_2d(opt, opt))) == 0
        full = make_space("full", 3, 25, 0)
        assert outlier_count(mode_errors_2d(spectrum_2d(full, full))) > 0

    def test_2d_outliers_require_long_branch(self):
        sp = spectrum_2d(make_space("optimal", 5, 10, 0),
                         make_space("optimal", 5, 30, 0))
        with pytest.raises(ConfigError):
            outlier_count(mode_errors_2d(sp))

    def test_neumann_pair_zero_mode(self):
        sp = spectrum_2d(make_space("optimal", 2, 8, 1),
                         make_space("optimal", 2, 8, 1))
        rep = mode_errors_2d(sp)
        assert rep.zero_mode[0]
        assert rep.ls[0][0] == 1 and rep.ls[1][0] == 1
        assert rep.e_freq[0] < 1e-5

"""Tests for the generalized symmetric eigensolvers."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eigenspline import (
    NumericalError,
    SymBandMatrix,
    assemble_mass,
    assemble_stiffness,
    fast_diagonalization_solve,
    generalized_eigen_sym,
    make_space,
)
from jacobi_oracle import jacobi_generalized_eigen
from kernel_oracles import band_matvec


def random_spd(rng, n, cond=1e3):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.geomspace(1.0, cond, n)
    return (q * w) @ q.T


class TestProduction:
    def test_diagonal_pencil(self):
        s = np.diag([3.0, 1.0, 2.0])
        m = np.eye(3)
        w, v = generalized_eigen_sym(s, m)
        assert_allclose(w, [1.0, 2.0, 3.0], rtol=1e-15)

    def test_two_by_two_closed_form(self):
        # S = [[2, 1], [1, 2]], M = diag(1, 4): det(S - t M) = 0 gives
        # 4 t^2 - 10 t + 3 = 0
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = np.diag([1.0, 4.0])
        roots = np.sort(np.roots([4.0, -10.0, 3.0]))
        w, _ = generalized_eigen_sym(s, m)
        assert_allclose(w, roots, rtol=1e-14)

    def test_m_orthonormal_vectors(self):
        rng = np.random.default_rng(11)
        s = random_spd(rng, 12)
        m = random_spd(rng, 12)
        w, v = generalized_eigen_sym(s, m)
        assert_allclose(v.T @ m @ v, np.eye(12), atol=1e-12)
        assert_allclose(s @ v, m @ v @ np.diag(w),
                        atol=1e-11 * np.linalg.norm(s))

    def test_accepts_band_matrices(self):
        sp = make_space("optimal", 3, 10, 0)
        s_band = assemble_stiffness(sp)
        m_band = assemble_mass(sp)
        w1, _ = generalized_eigen_sym(s_band, m_band)
        w2, _ = generalized_eigen_sym(s_band.to_dense(), m_band.to_dense())
        assert_allclose(w1, w2, rtol=1e-13)

    def test_eigenvalues_are_rayleigh_quotients(self):
        # v^T S v / v^T M v of each returned vector, in ascending order,
        # within n eps: the products are the diagonal loop's bit for bit,
        # and the two sums of n terms over a block of columns may round
        # differently.  LAPACK's own eigenvalues are 17 n eps off here.
        sp = make_space("full", 4, 300, 0)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        w, v = generalized_eigen_sym(s, m)
        ref = np.einsum("ik,ik->k", v, band_matvec(s, v)) \
            / np.einsum("ik,ik->k", v, band_matvec(m, v))
        assert_allclose(w, ref, rtol=sp.n * np.finfo(float).eps, atol=0)
        assert np.all(np.diff(w) >= 0.0)

    def test_quotients_of_a_cluster_come_back_sorted(self):
        # eigenvalues closer than their rounding: the quotients of LAPACK's
        # vectors need not ascend in LAPACK's order, so they are re-sorted
        # together with their vectors
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        s = (q * (1.0 + 1e-16 * np.arange(12))) @ q.T
        s = 0.5 * (s + s.T)
        w_lapack, _ = scipy.linalg.eigh(s, np.eye(12))
        w, v = generalized_eigen_sym(s, np.eye(12))
        quotients = np.einsum("ik,ik->k", v, s @ v) \
            / np.einsum("ik,ik->k", v, v)
        assert np.all(np.diff(w) >= 0.0)
        assert_allclose(w, quotients, rtol=4 * np.finfo(float).eps, atol=0)
        assert not np.array_equal(w, w_lapack)

    def test_rejects_indefinite_mass(self):
        s = np.eye(3)
        m = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NumericalError):
            generalized_eigen_sym(s, m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["s", "m"])
    @pytest.mark.parametrize("band", [False, True])
    def test_non_finite_pencil_rejected(self, bad, where, band):
        # scipy's eigh raises ValueError on a non-finite entry; the solver
        # and fast diagonalization map it to NumericalError
        sp = make_space("optimal", 3, 10, 0)
        pencil = {"s": assemble_stiffness(sp), "m": assemble_mass(sp)}
        pencil[where].band[1, 3] = bad
        if not band:
            pencil = {k: a.to_dense() for k, a in pencil.items()}
        s, m = pencil["s"], pencil["m"]
        with pytest.raises(NumericalError, match="not finite"):
            generalized_eigen_sym(s, m)
        with pytest.raises(NumericalError, match="not finite"):
            fast_diagonalization_solve(s, m, s, m, np.ones((sp.n, sp.n)))

    def test_shape_errors_stay_visible(self):
        # holds at the parent too: it guards that the finiteness check
        # leaves scipy's shape errors unmapped
        with pytest.raises(ValueError):
            generalized_eigen_sym(np.ones((2, 3)), np.eye(2))

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(5)
        s = random_spd(rng, 20)
        m = random_spd(rng, 20)
        w, _ = generalized_eigen_sym(s, m)
        assert np.all(np.diff(w) >= 0)


class TestJacobiOracle:
    def test_matches_identity_mass(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8))
        s = a + a.T
        w = jacobi_generalized_eigen(s, np.eye(8))
        assert_allclose(w, np.linalg.eigvalsh(s), atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_production(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        s = random_spd(rng, n, cond=10.0 ** rng.uniform(0, 5))
        m = random_spd(rng, n, cond=10.0 ** rng.uniform(0, 4))
        w_fast, _ = generalized_eigen_sym(s, m)
        w_oracle = jacobi_generalized_eigen(s, m)
        assert_allclose(w_fast, w_oracle, rtol=1e-11, atol=1e-11 * w_fast[-1])

    def test_band_inputs(self):
        sp = make_space("optimal", 2, 8, 0)
        w_fast, _ = generalized_eigen_sym(assemble_stiffness(sp),
                                          assemble_mass(sp))
        w_oracle = jacobi_generalized_eigen(assemble_stiffness(sp),
                                            assemble_mass(sp))
        assert_allclose(w_fast, w_oracle, rtol=1e-11)

    def test_zero_stiffness(self):
        w = jacobi_generalized_eigen(np.zeros((4, 4)), np.eye(4))
        assert_allclose(w, np.zeros(4))

    def test_rejects_large_pencil(self):
        n = 65
        with pytest.raises(NumericalError):
            jacobi_generalized_eigen(np.eye(n), np.eye(n))

    def test_rejects_indefinite_mass(self):
        with pytest.raises(NumericalError):
            jacobi_generalized_eigen(np.eye(2), np.diag([1.0, 0.0]))


class TestOnSplinePencils:
    @pytest.mark.parametrize("kind,p,n,bc", [
        ("optimal", 3, 12, 0), ("optimal", 4, 12, 1),
        ("reduced", 4, 12, 0), ("full", 3, 12, 2),
    ])
    def test_routes_agree(self, kind, p, n, bc):
        sp = make_space(kind, p, n, bc)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        w_fast, _ = generalized_eigen_sym(s, m)
        w_oracle = jacobi_generalized_eigen(s, m)
        assert_allclose(w_fast, w_oracle, rtol=1e-10, atol=1e-9)

"""Tests for spectra, mode errors, bounds and outlier counting."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenspline import (
    BoundaryType,
    ConfigError,
    SpaceKind,
    SymBandMatrix,
    assemble_mass,
    assemble_stiffness,
    exact_frequencies,
    generalized_eigen_sym,
    make_space,
    mode_errors,
    mode_errors_2d,
    outlier_count,
    reduced_basis_matrix,
    spectrum_1d,
)
from eigenspline import assembly, reports, spectrum, splines
from eigenspline.assembly import quadrature_grid
from eigenspline.cli import main
from eigenspline.reports import StudyConfig, run_spectrum_study
from eigenspline.spectrum import EFUN_BLOCK
from eigenspline.splines import bspline_eval_batch
from eigenspline.spaces import _wave_centres
from exact_modes import (eigval_upper_bound, eigval_upper_bound_sharp,
                         exact_eigenfunction, symbol_frequencies_mp,
                         wave_vectors)
from kernel_oracles import LoopProduct
from kernel_oracles import eigenfunction_errors as loop_errors


def _report_2d(spec1, spec2):
    return mode_errors_2d(spectrum_1d(spec1), spectrum_1d(spec2))


def _aligned_modes(sp):
    """Eigenvalues and M-orthonormal eigenvectors of the space as
    ``spectrum_1d`` takes them (the certified waves rebuilt from their
    amplitudes, else the pairs of the two mirror halves when both ends
    share a boundary type, else the dense solver's pairs), each vector
    flipped by the sign of its raw overlap in the error pass that
    ``spectrum_1d`` calls."""
    s, m = assemble_stiffness(sp), assemble_mass(sp)
    waves = sp.kind != SpaceKind.FULL and spectrum._certified_waves(sp, s, m)
    if waves:
        w, nu = waves
        v = wave_vectors(sp, nu)
        ov, _ = spectrum._wave_errors(sp, nu)
    elif sp.bc == BoundaryType.MIXED:
        w, v = generalized_eigen_sym(s, m)
        ov, _ = spectrum._eigenfunction_errors(sp, v)
    else:
        w, v, parity = spectrum._mirror_eigenpairs(s, m)
        ov, _ = spectrum._eigenfunction_errors(sp, v, parity)
    return w, v * np.where(ov < 0.0, -1.0, 1.0)


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
        _, vectors = _aligned_modes(sp)
        s = assemble_stiffness(sp).to_dense()
        m = assemble_mass(sp).to_dense()
        # M-orthonormal eigenvectors with nonnegative exact overlap
        assert_allclose(vectors.T @ m @ vectors, np.eye(n), atol=1e-9)
        assert np.all(spec.overlaps >= 0.0)
        # small relative residual per mode
        res = s @ vectors - m @ vectors * spec.eigenvalues
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
        # n_el <= p + 1: B-splines fold back across both ends
        ("optimal", 5, 3, 1), ("optimal", 6, 4, 2),
        # mode counts around the block size
        ("optimal", 3, EFUN_BLOCK - 1, 0), ("optimal", 4, EFUN_BLOCK, 1),
        ("full", 3, EFUN_BLOCK + 1, 2), ("optimal", 5, 2 * EFUN_BLOCK + 7, 1),
        ("full", 2, 2 * EFUN_BLOCK + 7, 0),
    ])
    def test_matches_dense_route(self, kind, p, n, bc):
        sp = make_space(kind, p, n, bc)
        spec = spectrum_1d(sp)
        overlaps, e_fun = _dense_mode_errors(sp, _aligned_modes(sp)[1])
        assert_allclose(spec.e_fun, e_fun, rtol=0, atol=1e-13)
        assert_allclose(spec.overlaps, overlaps, rtol=0, atol=1e-13)
        # every returned mode carries the sign of its exact eigenfunction
        assert np.all(spec.overlaps >= 0.0)

    def test_one_basis_evaluation_and_no_dense_basis(self, monkeypatch):
        # the sampled pass, which full spaces take: over every element for
        # mixed ends, over those left of 1/2 and an odd middle one for
        # mirrored ends
        evals, dense = [], []

        def counting(*args, **kwargs):
            evals.append(args)
            return splines._grid_samples(*args, **kwargs)

        def forbidden(*args, **kwargs):
            dense.append(args)
            return reduced_basis_matrix(*args, **kwargs)

        monkeypatch.setattr("eigenspline.spectrum._grid_samples", counting)
        for target in ("eigenspline.spaces", "eigenspline.spectrum"):
            monkeypatch.setattr(f"{target}.reduced_basis_matrix", forbidden,
                                raising=False)
        for bc, n, elements in ((2, 2 * EFUN_BLOCK + 7, lambda k: k),
                                (0, 2 * EFUN_BLOCK + 7, lambda k: k // 2),
                                (1, 2 * EFUN_BLOCK + 8,
                                 lambda k: (k + 1) // 2)):
            evals.clear()
            sp = make_space("full", 5, n, bc)
            spectrum_1d(sp)
            assert len(evals) == 1
            assert evals[0][2] == 0
            assert evals[0][1].size == elements(sp.n_el) * (sp.p + 3)
            assert not dense

    def test_one_layout_per_sampled_pass(self, monkeypatch):
        # the pass reads the knots' layout once and hands its element
        # classes to the sampler, which finds none of its own
        calls = []
        real = splines._layout

        def counting(kv):
            calls.append(kv)
            return real(kv)

        for module in (splines, spectrum):
            monkeypatch.setattr(module, "_layout", counting)
        for bc in (0, 2):
            sp = make_space("full", 5, 200, bc)
            s, m = assemble_stiffness(sp), assemble_mass(sp)
            if bc == BoundaryType.MIXED:
                (_, v), parity = generalized_eigen_sym(s, m), None
            else:
                _, v, parity = spectrum._mirror_eigenpairs(s, m)
            calls.clear()
            spectrum._eigenfunction_errors(sp, v, parity)
            assert calls == [sp.knots]

    def test_working_memory_far_below_dense_samples(self, monkeypatch):
        # the eigenpairs are computed outside the measurement, and handed
        # back by the mirror split in place of the certified waves so that
        # the sampled pass runs (the waves of mode l have the parity
        # (-1)^(l-1) of sin(l pi x) about 1/2); what is left is assembly
        # plus the error pass, which must hold no (quadrature points x n)
        # array, and which must peak below the same study run with the
        # loop pass (explicit weight products and per-element offset
        # gathers, over the whole interval)
        sp = make_space("optimal", 5, 1287, 0)
        w, nu = spectrum._certified_waves(sp, assemble_stiffness(sp),
                                          assemble_mass(sp))
        v = wave_vectors(sp, nu)
        parity = np.where(np.arange(sp.n) % 2, -1.0, 1.0)
        monkeypatch.setattr(spectrum, "_certified_waves",
                            lambda spec, s, m: None)
        monkeypatch.setattr(spectrum, "_mirror_eigenpairs",
                            lambda s, m: (w, v, parity))
        peaks = []
        for errors in (spectrum._eigenfunction_errors,
                       lambda spec, v, parity: loop_errors(spec, v)):
            monkeypatch.setattr(spectrum, "_eigenfunction_errors", errors)
            tracemalloc.start()
            try:
                spectrum_1d(sp)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_array = 8 * sp.n_el * (sp.p + 3) * sp.n
        assert peaks[0] < one_array / 3
        assert peaks[0] < peaks[1]

    def test_wave_errors_hold_no_element_by_mode_array(self):
        # the closed form sums the midpoints per class in blocks: a few
        # (elements x EFUN_BLOCK) tables, here a fifth of one (elements x
        # n) array
        sp = make_space("optimal", 5, 1287, 0)
        _, nu = spectrum._certified_waves(sp, assemble_stiffness(sp),
                                          assemble_mass(sp))
        tracemalloc.start()
        try:
            spectrum._wave_errors(sp, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * sp.n_el * EFUN_BLOCK


class TestClassGeometry:
    """Both error passes take their element classes, B-spline pieces and
    span-midpoint angles from the knots' layout."""

    @pytest.mark.parametrize("kind,p,n,bc", [
        ("full", 5, 1112, 0), ("optimal", 5, 1925, 0), ("full", 4, 1200, 1),
    ])
    def test_exact_waves_match_extended_precision(self, kind, p, n, bc):
        # Window, fixed before the run: 8 roundings of sqrt(2) |wave|, in
        # units of sqrt(w).  Each sample of the sampled pass is built from
        # a looked-up midpoint sine and cosine, the cosine and sine of the
        # offset angle, the root of the weight and the amplitude, two
        # products and a sum, each about one rounding of sqrt(2) sqrt(w).
        # Reference: sqrt(w) a wave(omega (c_e + y)) at the exact midpoint
        # c_e = (2e + 1 - sigma)/den, with the pass's own offsets y and
        # weights w, in 40 digits.  Taking sin and cos of the rounded
        # omega c_e instead is about 1e-12 off at these sizes.
        mpmath = pytest.importorskip("mpmath")
        sp = make_space(kind, p, n, bc)
        den, sigma, _ = splines._layout(sp.knots)
        cls, _, _, offsets, weights, sin_mid = spectrum._class_geometry(
            sp, sp.n_el, p + 3)
        neumann = sp.bc == BoundaryType.NEUMANN
        modes = np.array([0, 1, 2, n // 3, n // 2, n - 3, n - 2, n - 1])
        omega = exact_frequencies(sp.bc, n)[modes]
        ex = spectrum._exact_waves(cls, offsets, weights, sin_mid, omega,
                                   neumann).reshape(sp.n_el, p + 3, -1)
        wave = mpmath.cos if neumann else mpmath.sin
        elements = np.unique(np.r_[0:3, 3:sp.n_el:47, sp.n_el - 3:sp.n_el])
        worst = 0.0
        with mpmath.workdps(40):
            for e in elements:
                c = mpmath.mpf(int(2 * e + 1 - sigma)) / den
                for q in range(p + 3):
                    y = mpmath.mpf(offsets[cls[e], q])
                    sw = mpmath.sqrt(mpmath.mpf(weights[cls[e], q]))
                    for b, om in enumerate(omega):
                        k = int(round(2.0 * om / np.pi))
                        amp = mpmath.sqrt(2) if k else mpmath.mpf(1)
                        ref = sw * amp * wave(mpmath.pi * k / 2 * (c + y))
                        worst = max(worst, abs(ex[e, q, b] - float(ref))
                                    / float(sw))
        assert worst <= 8 * np.finfo(float).eps * np.sqrt(2.0), worst

    def test_wave_errors_take_the_shared_tables(self, monkeypatch):
        # The closed form's B-spline pieces are one run of the shared class
        # table helper at the representatives' points (a shifted layout:
        # both end elements cut, one class each, between them the
        # generic class from element 1), and no cardinal B-spline is
        # evaluated.
        sp = make_space("optimal", 4, 97, 0)
        _, nu = spectrum._certified_waves(sp, assemble_stiffness(sp),
                                          assemble_mass(sp))
        tables = []
        real = spectrum._class_tables

        def counting(kv, reps, pts, r):
            tables.append((reps.copy(), pts.shape, r))
            return real(kv, reps, pts, r)

        def forbidden(*args):
            raise AssertionError("cardinal B-spline evaluated")

        monkeypatch.setattr(spectrum, "_class_tables", counting)
        # the spectrum module holds no cardinal B-spline evaluator of its own
        assert not hasattr(spectrum, "cardinal_bspline")
        monkeypatch.setattr(splines, "cardinal_bspline", forbidden)
        spectrum._wave_errors(sp, nu)
        assert len(tables) == 1
        reps, shape, r = tables[0]
        assert np.array_equal(reps, [0, 1, sp.n_el - 1])
        assert shape == (3, sp.p + 3) and r == 0


class TestErrorPassRouting:
    """Certified waves take the closed form, everything else the sampled
    pass (over half the interval when both ends share a boundary type);
    both must match the dense route."""

    @staticmethod
    def _passes(monkeypatch):
        calls = []

        def sampling(*args, **kwargs):
            calls.append("grid_samples")
            return splines._grid_samples(*args, **kwargs)

        def sampled(*args, **kwargs):
            calls.append("_eigenfunction_errors")
            return errors(*args, **kwargs)

        errors = spectrum._eigenfunction_errors
        monkeypatch.setattr("eigenspline.spectrum._grid_samples", sampling)
        monkeypatch.setattr(spectrum, "_eigenfunction_errors", sampled)
        return calls

    @staticmethod
    def _check_against_dense(sp, result):
        overlaps, e_fun = _dense_mode_errors(sp, _aligned_modes(sp)[1])
        assert_allclose(result.e_fun, e_fun, rtol=0, atol=1e-13)
        assert_allclose(result.overlaps, overlaps, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind,p,n,bc,sampled", [
        ("optimal", 3, 30, 0, False), ("optimal", 4, 30, 1, False),
        ("optimal", 5, 30, 2, False), ("reduced", 4, 30, 0, False),
        ("optimal", 2, 1, 0, False), ("full", 3, 30, 0, True),
        ("full", 4, 30, 1, True), ("full", 5, 30, 2, True),
    ])
    def test_route_by_space(self, monkeypatch, kind, p, n, bc, sampled):
        calls = self._passes(monkeypatch)
        sp = make_space(kind, p, n, bc)
        result = spectrum_1d(sp)
        expected = ["_eigenfunction_errors", "grid_samples"] if sampled \
            else []
        assert calls == expected
        self._check_against_dense(sp, result)

    @pytest.mark.parametrize("bc", [0, 1, 2])
    def test_failed_certificate_takes_sampled_pass(self, monkeypatch, bc):
        calls = self._passes(monkeypatch)
        monkeypatch.setattr(spectrum, "WAVE_TOL", 0.0)
        sp = make_space("optimal", 4, 30, bc)
        assert spectrum._certified_waves(sp, assemble_stiffness(sp),
                                         assemble_mass(sp)) is None
        result = spectrum_1d(sp)
        assert calls == ["_eigenfunction_errors", "grid_samples"]
        self._check_against_dense(sp, result)


def _oracle_spaces():
    """kind x bc x p <= 10 x n in {2p + 3, 97}, legal spaces.  n = 97
    spans a full and a partial block of ``EFUN_BLOCK`` modes, so larger
    n add run time but no code path.  Full spaces, whose eigenpairs come
    from the dense solver and feed only the error pass, run at n = 2p + 3
    only: the pass's block loop does not depend on the kind."""
    for kind in SpaceKind:
        sizes = 1 if kind == SpaceKind.FULL else 2
        for bc in BoundaryType:
            for p in range(1, 11):
                for n in (2 * p + 3, 97)[:sizes]:
                    try:
                        yield make_space(kind, p, n, bc)
                    except ConfigError:
                        pass


@pytest.fixture(scope="module")
def loop_oracle_sweep():
    """Each space of the sweep solved as shipped and through the loop
    references: (kind, bc, p, n), whether the certified waves' eigenvalues
    and amplitudes agree bitwise (their vectors are a fixed function of
    the amplitudes), the largest gap of the sampled error pass's ``e_fun``
    and ``overlaps``, and that of the closed form (None when the waves are
    not certified).

    Full spaces take the dense solver outside the loop products, so only
    their error pass is compared."""
    rows = []
    with pytest.MonkeyPatch.context() as loops:
        for sp in _oracle_spaces():
            s, m = assemble_stiffness(sp), assemble_mass(sp)
            waves, same = None, True
            if sp.kind != SpaceKind.FULL:
                waves = spectrum._certified_waves(sp, s, m)
                loops.setattr(SymBandMatrix, "to_sparse",
                              lambda a: LoopProduct(a))
                ref = spectrum._certified_waves(sp, s, m)
                loops.undo()
                same = (waves is None) == (ref is None) and (
                    waves is None or all(map(np.array_equal, waves, ref)))
            if waves is None:
                _, v = generalized_eigen_sym(s, m)
                nu = None
            else:
                _, nu = waves
                v = wave_vectors(sp, nu)
            overlaps, e_fun = spectrum._eigenfunction_errors(sp, v)
            overlaps_ref, e_fun_ref = loop_errors(sp, v)
            gap = max(np.abs(e_fun - e_fun_ref).max(),
                      np.abs(overlaps - overlaps_ref).max())
            wave_gap = None
            if nu is not None:
                overlaps, e_fun = spectrum._wave_errors(sp, nu)
                wave_gap = max(np.abs(e_fun - e_fun_ref).max(),
                               np.abs(overlaps - overlaps_ref).max())
            rows.append(((sp.kind.value, int(sp.bc), sp.p, sp.n), same, gap,
                         wave_gap))
    return rows


class TestLoopOracles:
    def test_eigenpairs_bitwise_against_loop_matvec(self, loop_oracle_sweep):
        waves = [r for r in loop_oracle_sweep if r[0][0] != "full"]
        assert len(waves) == 70
        assert [case for case, same, _, _ in waves if not same] == []

    def test_error_pass_matches_loop_pass(self, loop_oracle_sweep):
        assert len(loop_oracle_sweep) == 100
        worst = max(loop_oracle_sweep, key=lambda r: r[2])
        assert worst[2] <= 1e-13, worst

    def test_wave_errors_match_loop_pass(self, loop_oracle_sweep):
        # every optimal and reduced space of the sweep is certified
        waves = [r for r in loop_oracle_sweep if r[3] is not None]
        assert len(waves) == 70
        worst = max(waves, key=lambda r: r[3])
        assert worst[3] <= 1e-13, worst

    @pytest.mark.parametrize("kind,p,n,bc", [
        # the benchmark's two certified spectra
        ("optimal", 5, 1287, 0), ("optimal", 4, 1200, 1),
        # n_el <= p + 1: B-splines fold back across both ends
        ("optimal", 5, 3, 1), ("optimal", 6, 4, 2), ("reduced", 2, 2, 0),
        # three elements, both ends cut to half spans (Dirichlet, even p;
        # Neumann, odd p), or the right end only (mixed, odd p)
        ("optimal", 2, 1, 0), ("optimal", 6, 1, 0), ("optimal", 3, 2, 1),
        ("optimal", 3, 2, 2),
    ])
    def test_wave_errors_match_loop_pass_off_the_sweep(self, kind, p, n,
                                                        bc):
        sp = make_space(kind, p, n, bc)
        waves = spectrum._certified_waves(sp, assemble_stiffness(sp),
                                          assemble_mass(sp))
        assert waves is not None
        _, nu = waves
        overlaps, e_fun = spectrum._wave_errors(sp, nu)
        overlaps_ref, e_fun_ref = loop_errors(sp, wave_vectors(sp, nu))
        assert_allclose(e_fun, e_fun_ref, rtol=0, atol=1e-13)
        assert_allclose(overlaps, overlaps_ref, rtol=0, atol=1e-13)
        # flipped waves: overlaps flip, the sign-aligned errors stay
        flipped, e_fun_flipped = spectrum._wave_errors(sp, -nu)
        assert np.array_equal(flipped, -overlaps)
        assert np.array_equal(e_fun_flipped, e_fun)


def _counting_eigensolver(monkeypatch):
    calls = []

    def counting(s, m):
        calls.append(s.n)
        return generalized_eigen_sym(s, m)

    monkeypatch.setattr("eigenspline.spectrum.generalized_eigen_sym",
                        counting)
    return calls


class TestWaveEigenpairs:
    @pytest.mark.parametrize("kind,p,n,bc,dense", [
        ("optimal", 3, 40, 0, 0), ("optimal", 4, 40, 1, 0),
        ("optimal", 5, 40, 2, 0), ("reduced", 4, 40, 0, 0),
        ("optimal", 2, 2 * EFUN_BLOCK + 7, 1, 0), ("full", 3, 40, 0, 1),
        ("full", 4, 41, 1, 1), ("full", 3, 40, 2, 1),
    ])
    def test_dense_solver_only_for_full_spaces(self, monkeypatch, kind, p,
                                               n, bc, dense):
        # a full space is solved once: mixed ends as one pencil, mirrored
        # ends as their even and odd halves, ceil(n/2) and floor(n/2)
        calls = _counting_eigensolver(monkeypatch)
        spectrum_1d(make_space(kind, p, n, bc))
        sizes = [n] if bc == BoundaryType.MIXED else [n - n // 2, n // 2]
        assert calls == sizes * dense

    @pytest.mark.parametrize("kind,p,n,bc", [
        ("optimal", 3, 30, 0), ("optimal", 4, 30, 1), ("optimal", 6, 30, 2),
        ("reduced", 4, 30, 0), ("optimal", 5, 3, 1),
    ])
    def test_waves_match_dense_solver(self, kind, p, n, bc):
        sp = make_space(kind, p, n, bc)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        w, nu = spectrum._certified_waves(sp, s, m)
        v = wave_vectors(sp, nu)
        w_ref, v_ref = generalized_eigen_sym(s, m)
        assert_allclose(w, w_ref, rtol=1e-11, atol=1e-11)
        # the same M-orthonormal vectors up to sign
        assert_allclose(np.abs(v.T @ m.to_dense() @ v_ref), np.eye(n),
                        atol=1e-9)

    @pytest.mark.parametrize("bc", [0, 1, 2])
    def test_failed_certificate_falls_back(self, monkeypatch, bc):
        # no residual can meet a zero tolerance: the solver runs once on
        # the pencil (mixed ends) or on each mirror half, and its pairs go
        # unchanged to the report and the error pass
        sp = make_space("optimal", 4, 30, bc)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        if bc == BoundaryType.MIXED:
            (w_ref, v_ref), parity = generalized_eigen_sym(s, m), None
        else:
            w_ref, v_ref, parity = spectrum._mirror_eigenpairs(s, m)
        calls = _counting_eigensolver(monkeypatch)
        monkeypatch.setattr(spectrum, "WAVE_TOL", 0.0)
        assert spectrum._certified_waves(sp, s, m) is None
        result = spectrum_1d(sp)
        assert len(calls) == (1 if parity is None else 2)
        overlaps, e_fun = spectrum._eigenfunction_errors(sp, v_ref, parity)
        assert np.array_equal(result.overlaps, np.abs(overlaps)) \
            and np.array_equal(result.e_fun, e_fun)
        assert np.array_equal(result.eigenvalues, w_ref)

    def test_certificate_works_in_column_blocks(self):
        # the waves and their checks hold only (n x EFUN_BLOCK) blocks
        sp = make_space("optimal", 5, 1000, 0)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        tracemalloc.start()
        try:
            spectrum._certified_waves(sp, s, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * sp.n * (sp.n + 8 * EFUN_BLOCK)

    def test_certificate_builds_each_band_operator_once(self, monkeypatch):
        # one diagonal-format copy of S and of M serves every block of
        # waves and the orthonormality sample
        sp = make_space("optimal", 5, 4 * EFUN_BLOCK + 9, 0)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        ref = spectrum._certified_waves(sp, s, m)
        builds = []
        real = SymBandMatrix.to_sparse

        def counting(a):
            builds.append(a)
            return real(a)

        monkeypatch.setattr(SymBandMatrix, "to_sparse", counting)
        got = spectrum._certified_waves(sp, s, m)
        assert len(builds) == 2 and builds[0] is s and builds[1] is m
        assert all(map(np.array_equal, got, ref))

    def test_wrong_centres_fail_the_certificate(self, monkeypatch):
        # waves sampled off the fold's centres are not eigenvectors; the
        # certificate must reject them rather than report their quotients
        sp = make_space("optimal", 3, 30, 2)
        calls = _counting_eigensolver(monkeypatch)
        real = spectrum._wave_centres
        monkeypatch.setattr(spectrum, "_wave_centres",
                            lambda spec: real(spec) * 0.99)
        w = spectrum_1d(sp).eigenvalues
        assert len(calls) == 1
        w_ref, _ = generalized_eigen_sym(assemble_stiffness(sp),
                                         assemble_mass(sp))
        assert np.array_equal(w, w_ref)


# Split against dense eigenvalues, relative, in units of n^2 eps (the
# growth of cond(S), as for WAVE_TOL): each route is backward stable, and
# the symmetrisation moves the pencil's entries by about 1e-13 of their
# size, so a low mode's eigenvalue moves by a small multiple of
# eps cond(S) either way.  The largest gap measured over the cases below
# is 0.62 n^2 eps (full Neumann p=4, n=401, mode 2).
SPLIT_WINDOW = 4.0
# Galerkin frequencies never undercut the exact ones, so a negative
# relative frequency error is round-off; this floor is a tenth of the
# benchmark's -1e-10 output check.
ROUND_OFF_FLOOR = -1e-11


def _swapped_top_pair(v, parity):
    """The mirror split's eigenpairs with the top pair, near-degenerate
    and one even, one odd, ordered so that each has the parity opposite to
    its exact wave's, (-1)^(l-1): whichever way the pencil's round-off
    orders the pair, the two modes of swapped parity (q = -1)."""
    n = parity.size
    assert parity[-1] != parity[-2]
    if parity[-1] == (1.0 if n % 2 else -1.0):
        order = np.r_[:n - 2, n - 1, n - 2]
        v, parity = v[:, order], parity[order]
    return v, parity


class TestMirrorSplit:
    """Spaces whose ends share a boundary type solve their pencil as two
    half-size pencils and take the error pass over half the interval."""

    @pytest.mark.parametrize("p,n,bc", [
        (5, 1112, 0), (5, 1113, 0), (4, 1200, 1), (3, 255, 0),
        (4, 401, 1), (8, 300, 0), (3, 88, 0), (2, 7, 1),
    ])
    def test_eigenvalues_against_dense(self, p, n, bc):
        sp = make_space("full", p, n, bc)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        w, v, parity = spectrum._mirror_eigenpairs(s, m)
        w_ref, _ = generalized_eigen_sym(s, m)
        nonzero = np.abs(w_ref) > 1e-8
        gap = np.abs(w - w_ref)[nonzero] / w_ref[nonzero]
        assert gap.max() <= SPLIT_WINDOW * n * n * np.finfo(float).eps
        # the Neumann constant sits at zero on both routes
        assert np.abs(w[~nonzero]).max(initial=0.0) <= 1e-8
        # M-orthonormal on the stored mass matrix
        eye = v.T @ m.to_dense() @ v - np.eye(n)
        assert np.abs(eye).max() <= \
            spectrum.WAVE_TOL * n * n * np.finfo(float).eps
        # the vectors are even or odd as their parity says
        assert np.array_equal(v[::-1], v * parity)

    @pytest.mark.parametrize("p,n,bc", [(5, 1113, 0), (4, 1200, 1),
                                        (8, 1000, 1)])
    def test_low_mode_round_off_floor(self, p, n, bc):
        # the dense solve of the whole pencil read -2.7e-11 and -3.0e-11
        # on the first two, LAPACK's eigenvalues of the split -1.3e-12,
        # -9.8e-13 and -1.2e-11 on the per-point pencils, and -2.1e-12,
        # -1.5e-11 and -5.4e-11 on the class-table pencils; their Rayleigh
        # quotients read -5.7e-14, -6.9e-12 and -6.6e-13
        rep = mode_errors(spectrum_1d(make_space("full", p, n, bc)))
        assert rep.e_freq[~rep.zero_mode].min() >= ROUND_OFF_FLOOR

    def test_half_pass_matches_full_grid(self):
        # on the full spaces of the loop-oracle sweep with mirrored ends,
        # and on the top pair of full Dirichlet p=3, n=88 put in the order
        # that swaps both parities against their exact waves' (q = -1)
        checked, swapped = 0, 0
        spaces = [sp for sp in _oracle_spaces()
                  if sp.kind == SpaceKind.FULL
                  and sp.bc != BoundaryType.MIXED]
        spaces.append(make_space("full", 3, 88, 0))
        for sp in spaces:
            _, v, parity = spectrum._mirror_eigenpairs(
                assemble_stiffness(sp), assemble_mass(sp))
            if sp is spaces[-1]:
                v, parity = _swapped_top_pair(v, parity)
            overlaps, e_fun = spectrum._eigenfunction_errors(sp, v, parity)
            overlaps_ref, e_fun_ref = spectrum._eigenfunction_errors(sp, v)
            assert_allclose(e_fun, e_fun_ref, rtol=0, atol=1e-13)
            assert_allclose(overlaps, overlaps_ref, rtol=0, atol=1e-13)
            checked += 1
            q = parity * np.where(np.arange(sp.n) % 2, -1.0, 1.0)
            swapped += np.count_nonzero(q < 0.0)
        assert checked == 21
        assert swapped == 2

    def test_swapped_parity_modes_are_sign_definite(self):
        # a mode of the opposite parity to its exact wave has zero overlap
        # and the same error whatever its sign
        sp = make_space("full", 3, 88, 0)
        _, v, parity = spectrum._mirror_eigenpairs(assemble_stiffness(sp),
                                                   assemble_mass(sp))
        v, parity = _swapped_top_pair(v, parity)
        q = parity * np.where(np.arange(sp.n) % 2, -1.0, 1.0)
        assert list(np.flatnonzero(q < 0.0) + 1) == [87, 88]
        overlaps, e_fun = spectrum._eigenfunction_errors(sp, v, parity)
        flipped, e_fun_flipped = spectrum._eigenfunction_errors(sp, -v,
                                                                parity)
        assert np.all(overlaps[q < 0.0] == 0.0)
        assert np.array_equal(e_fun_flipped, e_fun)
        assert np.array_equal(flipped, -overlaps)

    def test_one_evaluation_per_spectrum(self, monkeypatch):
        # stiffness and mass come from one order-1 class table of the
        # B-splines on the (p+1)-point grid: p+1 points per class
        calls = []
        real = assembly._class_tables

        def counting(kv, spans, pts, r):
            calls.append((r, pts.size))
            return real(kv, spans, pts, r)

        monkeypatch.setattr(assembly, "_class_tables", counting)
        for kind, p, n, bc in (("full", 5, 40, 0), ("full", 3, 40, 2),
                               ("optimal", 4, 40, 1), ("reduced", 4, 30, 0)):
            calls.clear()
            sp = make_space(kind, p, n, bc)
            _, reps = splines._classes(sp.knots, sp.breaks,
                                       splines._layout(sp.knots))
            spectrum_1d(sp)
            assert calls == [(1, reps.size * (p + 1))]

    @pytest.mark.parametrize("kind,p,n,bc", [
        ("full", 3, 20, 2), ("full", 5, 41, 2), ("optimal", 3, 30, 0),
        ("optimal", 4, 30, 1), ("optimal", 5, 30, 2), ("reduced", 4, 30, 0),
    ])
    def test_mixed_and_certified_spectra_unchanged(self, kind, p, n, bc):
        # spectra that take neither the split nor the half pass: the
        # dense solve of the whole pencil and the full-grid pass, or the
        # certified waves, exactly as their routes give them
        sp = make_space(kind, p, n, bc)
        s, m = assemble_stiffness(sp), assemble_mass(sp)
        result = spectrum_1d(sp)
        waves = spectrum._certified_waves(sp, s, m) \
            if kind != "full" else None
        if waves:
            w, nu = waves
            overlaps, e_fun = spectrum._wave_errors(sp, nu)
        else:
            w, v = generalized_eigen_sym(s, m)
            overlaps, e_fun = spectrum._eigenfunction_errors(sp, v)
        assert np.array_equal(result.eigenvalues, w)
        assert np.array_equal(result.overlaps, np.abs(overlaps))
        assert np.array_equal(result.e_fun, e_fun)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoDenseMatrix:
    """The structural target on optimal spectra: certified waves are kept
    as amplitudes and take the closed-form error pass, so no n x n array
    is formed.  Each run peaks below half of one n x n float64 array."""

    @pytest.mark.parametrize("p,n,bc", [(5, 1287, 0), (4, 1200, 1)])
    def test_spectrum(self, p, n, bc):
        sp = make_space("optimal", p, n, bc)
        assert _traced_peak(spectrum_1d, sp) < 8 * n * n / 2

    @pytest.mark.parametrize("p,n,bc", [(5, 1287, 0), (4, 1200, 1)])
    def test_shared_tensor_space(self, monkeypatch, p, n, bc):
        # the report's n^2 tensor modes are the study's output, not a
        # matrix, so they are left out (the stub reports one direction):
        # the one 1D solve behind both directions of a spectrum2d study is
        # measured
        cfg = StudyConfig(subcommand="spectrum2d", kind="optimal",
                          degrees=(p,), dims=(n,), bc=bc)
        collated = []

        def stub(sp1, sp2):
            collated.append((sp1, sp2))
            return mode_errors(sp1)

        monkeypatch.setattr(reports, "mode_errors_2d", stub)
        peak = _traced_peak(run_spectrum_study, cfg)
        assert len(collated) == 1 and collated[0][0] is collated[0][1]
        assert peak < 8 * n * n / 2


# Symbol-oracle window in units of n^2 eps (the growth of cond(S)); the
# largest gap measured over the grid below is 10.4 n^2 eps (optimal mixed
# p=10, n=12).
SYMBOL_WINDOW = 32.0


def _wave_quotients(sp):
    """Rayleigh quotients of the sampled waves on the assembled pencil,
    as the wave certificate builds the waves, in blocks of columns."""
    s, m = assemble_stiffness(sp), assemble_mass(sp)
    c = _wave_centres(sp)
    omega = exact_frequencies(sp.bc, sp.n)
    wave = np.cos if sp.bc == BoundaryType.NEUMANN else np.sin
    quotients = np.empty(sp.n)
    for lo in range(0, sp.n, 256):
        v = wave(np.outer(c, omega[lo:lo + 256]))
        quotients[lo:lo + 256] = np.einsum("ik,ik->k", v, s.matvec(v)) \
            / np.einsum("ik,ik->k", v, m.matvec(v))
    return quotients


class TestSymbolOracle:
    """The assembled pencils of optimal and reduced spaces against the
    closed-form cardinal-spline symbol at theta_l = omega_l h: the
    Rayleigh quotients of the sampled waves, which the spectra no longer
    report, so that the symbol is checked against the pencil it stands
    for."""

    @staticmethod
    def _gap(sp):
        w = _wave_quotients(sp)
        ref = spectrum._symbol_frequencies(sp)
        ok = ref > 0.0  # the Neumann constant has no relative gap
        gap = np.abs(np.sqrt(np.clip(w[ok], 0.0, None)) / ref[ok] - 1.0)
        return gap.max() / (sp.n ** 2 * np.finfo(float).eps)

    @pytest.mark.parametrize("kind,bc", [("optimal", 0), ("optimal", 1),
                                         ("optimal", 2), ("reduced", 0)])
    def test_degree_sweep(self, kind, bc):
        for p in range(1, 11):
            if kind == "reduced" and p % 2:
                continue
            for n in (12, 60, 200):
                assert self._gap(make_space(kind, p, n, bc)) \
                    <= SYMBOL_WINDOW, (p, n)

    @pytest.mark.parametrize("kind,p,bc", [
        ("optimal", 3, 0), ("optimal", 4, 1), ("optimal", 5, 2),
        ("reduced", 4, 0)])
    def test_large_dimension(self, kind, p, bc):
        assert self._gap(make_space(kind, p, 2000, bc)) <= SYMBOL_WINDOW

    def test_one_mode_shift_is_caught(self):
        sp = make_space("optimal", 3, 60, 0)
        w = np.sqrt(_wave_quotients(sp))
        ref = spectrum._symbol_frequencies(sp)
        shifted = np.abs(w[1:] / ref[:-1] - 1.0).max()
        assert shifted > 1e6 * SYMBOL_WINDOW * 60 ** 2 * np.finfo(float).eps


# Reported frequencies of certified waves against the 40-digit symbol,
# relative, in units of n eps.  The largest gap measured over the cases
# below is 0.072 n eps (optimal Dirichlet p=3, n=20; 1.4 eps), and no
# case exceeds 2.4 eps.  The Rayleigh quotients reported before exceed
# the window on six of them, by up to 107 n eps (reduced p=12, n=100),
# and read 1.1e-12 relative, 4.0 n eps, at optimal Dirichlet p=5, n=1287.
SYMBOL_MP_WINDOW = 1.0


class TestSymbolEigenvalues:
    """Certified waves report the symbol's eigenvalues, so their
    frequencies carry none of the assembled pencil's round-off."""

    @pytest.mark.parametrize("kind,p,n,bc", [
        ("optimal", 5, 1287, 0), ("optimal", 4, 1200, 1),
        ("optimal", 3, 1100, 2), ("reduced", 4, 1200, 0),
        ("optimal", 3, 20, 0), ("optimal", 3, 20, 1), ("optimal", 4, 20, 2),
        ("reduced", 4, 16, 0), ("optimal", 6, 200, 0), ("optimal", 5, 300, 2),
        ("optimal", 10, 200, 0), ("optimal", 13, 300, 1),
        ("reduced", 12, 100, 0),
    ])
    def test_frequencies_against_extended_precision(self, kind, p, n, bc):
        mpmath = pytest.importorskip("mpmath")
        sp = make_space(kind, p, n, bc)
        result = spectrum_1d(sp)
        ref = symbol_frequencies_mp(sp)
        with mpmath.workdps(40):
            gap = max(abs(mpmath.mpf(float(f)) / r - 1)
                      for f, r in zip(result.frequencies, ref) if r != 0)
        assert float(gap) <= SYMBOL_MP_WINDOW * n * np.finfo(float).eps
        assert np.array_equal(result.frequencies,
                              spectrum._symbol_frequencies(sp))
        if bc == BoundaryType.NEUMANN:
            assert ref[0] == 0
            assert result.eigenvalues[0] == 0.0
            assert result.frequencies[0] == 0.0


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
        # the same per-mode arithmetic as the scalar reference
        # eigval_upper_bound, bit for bit,
        # from one exact_frequencies call per spectrum instead of one per
        # mode (plus the one for the exact column)
        sp = make_space("optimal", 4, 30, bc)
        sp1 = spectrum_1d(sp)
        expected = [eigval_upper_bound(l, 30, 4, bc) for l in range(1, 31)]
        sp2 = spectrum_1d(make_space("optimal", 3, 20, bc))
        calls = []

        def counting(*args):
            calls.append(args)
            return exact_frequencies(*args)

        monkeypatch.setattr(spectrum, "exact_frequencies", counting)
        assert mode_errors(sp1).bound.tolist() == expected
        assert len(calls) == 2
        del calls[:]
        assert np.isfinite(mode_errors_2d(sp1, sp2).bound).any()
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

    @pytest.mark.parametrize("p,n,bc", [(8, 60, 0), (12, 60, 0),
                                        (6, 30, 1)])
    def test_optimal_modes_inside_their_bound(self, p, n, bc):
        # top modes here exceed twice the branch maximum while staying
        # inside their a priori bound, so none of them is an outlier
        rep = mode_errors(spectrum_1d(make_space("optimal", p, n, bc)))
        assert outlier_count(rep) == 0

    def test_optimal_sweep_is_clean(self):
        for bc in (0, 1, 2):
            for p in range(1, 17):
                for n in (2 * p + 1, 4 * p + 20):
                    sp = make_space("optimal", p, n, bc)
                    assert outlier_count(mode_errors(spectrum_1d(sp))) == 0, \
                        (p, n, bc)

    def test_mode_leaving_its_bound_counts(self):
        rep = mode_errors(spectrum_1d(make_space("optimal", 4, 40, 0)))
        rep.e_freq[-1] = rep.bound[-1] + 10 * spectrum.BOUND_TOL \
            + 2.0 * rep.e_freq.max()
        assert outlier_count(rep) == 1

    def test_requires_long_branch(self):
        sp = make_space("optimal", 5, 10, 0)
        with pytest.raises(ConfigError):
            outlier_count(mode_errors(spectrum_1d(sp)))


class TestSpectrum2D:
    def test_sorted_by_exact_frequency(self):
        rep = _report_2d(make_space("optimal", 2, 8, 0),
                         make_space("optimal", 3, 7, 0))
        assert np.all(np.diff(rep.omega_exact) >= 0)
        assert rep.ls[0].size == 8 * 7

    def test_squared_frequency_identity_bitwise(self):
        s1 = spectrum_1d(make_space("optimal", 3, 7, 0))
        s2 = spectrum_1d(make_space("optimal", 3, 6, 2))
        rep = mode_errors_2d(s1, s2)
        l1, l2 = rep.ls
        recomputed = s1.eigenvalues[l1 - 1] + s2.eigenvalues[l2 - 1]
        assert np.array_equal(rep.omega_h,
                              np.sqrt(np.clip(recomputed, 0, None)))
        assert_allclose(rep.omega_h ** 2, recomputed)

    def test_matches_kronecker_pencil(self):
        # independent route: assemble the full 2D pencil with Kronecker
        # products and solve it densely
        spx = make_space("optimal", 2, 6, 0)
        spy = make_space("optimal", 3, 5, 0)
        rep = _report_2d(spx, spy)
        s1, m1 = (a.to_dense() for a in (assemble_stiffness(spx),
                                         assemble_mass(spx)))
        s2, m2 = (a.to_dense() for a in (assemble_stiffness(spy),
                                         assemble_mass(spy)))
        big_s = np.kron(s1, m2) + np.kron(m1, s2)
        big_m = np.kron(m1, m2)
        w, _ = generalized_eigen_sym(big_s, big_m)
        assert_allclose(np.sort(rep.omega_h ** 2), w, rtol=1e-10, atol=1e-8)

    def test_mode_error_identity_vs_tensor_quadrature(self):
        # recompute the product-mode L2 error on an explicit 2D Gauss grid
        spx = make_space("optimal", 2, 6, 0)
        spy = make_space("optimal", 2, 5, 0)
        rep = _report_2d(spx, spy)
        xs, wx = quadrature_grid(spx.breaks, spx.p + 3)
        ys, wy = quadrature_grid(spy.breaks, spy.p + 3)
        bx = reduced_basis_matrix(spx, xs, r=0)[0]
        by = reduced_basis_matrix(spy, ys, r=0)[0]
        vx, vy = _aligned_modes(spx)[1], _aligned_modes(spy)[1]
        for k in (0, 3, 11):
            l1, l2 = rep.ls[0][k], rep.ls[1][k]
            u1 = exact_eigenfunction(spx.bc, l1)[0](xs)
            u2 = exact_eigenfunction(spy.bc, l2)[0](ys)
            uh1 = bx @ vx[:, l1 - 1]
            uh2 = by @ vy[:, l2 - 1]
            diff = np.outer(u1, u2) - np.outer(uh1, uh2)
            direct = np.sqrt(np.einsum("xy,x,y->", diff ** 2, wx, wy))
            assert_allclose(rep.e_fun[k], direct, rtol=1e-6, atol=1e-9)

    def test_same_space_is_solved_once(self, monkeypatch):
        calls = []
        reps = []

        def counting(spec):
            calls.append(spec)
            return spectrum_1d(spec)

        def capturing(sp1, sp2):
            reps.append(mode_errors_2d(sp1, sp2))
            return reps[-1]

        separate = _report_2d(make_space("optimal", 3, 9, 1),
                              make_space("optimal", 3, 9, 1))
        monkeypatch.setattr(reports, "spectrum_1d", counting)
        monkeypatch.setattr(reports, "mode_errors_2d", capturing)
        run_spectrum_study(StudyConfig(subcommand="spectrum2d",
                                       kind="optimal", degrees=(3,),
                                       dims=(9,), bc=1))
        assert len(calls) == 1 and len(reps) == 1
        rep = reps[0]
        for name in ("ls", "omega_exact", "omega_h", "e_freq", "e_fun",
                     "bound", "zero_mode"):
            assert np.array_equal(getattr(rep, name), getattr(separate, name),
                                  equal_nan=name == "bound"), name

    def test_2d_bound_holds_for_optimal(self):
        rep = _report_2d(make_space("optimal", 3, 9, 0),
                         make_space("optimal", 3, 9, 0))
        ok = ~rep.zero_mode & np.isfinite(rep.bound)
        assert np.all(rep.e_freq[ok] <= rep.bound[ok] + 1e-12)
        assert np.all(rep.e_freq[ok] >= -1e-9)

    def test_2d_outlier_counts(self):
        opt = make_space("optimal", 3, 25, 0)
        assert outlier_count(_report_2d(opt, opt)) == 0
        full = make_space("full", 3, 25, 0)
        assert outlier_count(_report_2d(full, full)) > 0

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_2d_optimal_cli_study_is_clean(self, bc, capsys):
        assert main(["spectrum2d", "--degree", "3", "--dim", "8",
                     "--bc", bc]) == 0
        assert "outliers=0" in capsys.readouterr().out

    def test_2d_outliers_require_long_branch(self):
        rep = _report_2d(make_space("optimal", 5, 10, 0),
                         make_space("optimal", 5, 30, 0))
        with pytest.raises(ConfigError):
            outlier_count(rep)

    def test_neumann_pair_zero_mode(self):
        rep = _report_2d(make_space("optimal", 2, 8, 1),
                         make_space("optimal", 2, 8, 1))
        assert rep.zero_mode[0]
        assert rep.ls[0][0] == 1 and rep.ls[1][0] == 1
        assert rep.e_freq[0] < 1e-5

"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

These are the binding end-to-end checks of the package; every test states
the measured quantity in its result line.  Criterion 7 (correction
recovery) holds even p to the two-sided window p+1 +/- 0.3.  For odd p a
degree-p correction cannot carry the endpoint value of u^{(p+1)}, so the
corrected error has a boundary-local h^{p+3/2} component that dominates on
every ladder float64 can resolve (last-pair orders near 4.34 for p=3 and
6.48 for p=5 on n = 16..128).  Odd p is therefore checked by two edges: the
global order must lie in [p+1-0.3, p+3/2+0.3], the lower edge being the
full-order claim, and the error on the correction's support (first and last
p+1 elements) must converge at p+3/2 +/- 0.3, which ties the overshoot to
that boundary term.
"""

import time

import numpy as np
import pytest

from eigenspline import (
    assemble_mass,
    assemble_stiffness,
    boundary_residuals,
    function_error,
    generalized_eigen_sym,
    get_preset,
    l2_projection,
    make_space,
    mode_errors,
    mode_errors_2d,
    outlier_count,
    ritz_projection,
    solve_poisson_1d,
    solve_poisson_2d,
    spectrum_1d,
    spectrum_2d,
)
from eigenspline.assembly import error_b_coefficients
from eigenspline.spectrum import collate_2d

from jacobi_oracle import jacobi_generalized_eigen
from test_spaces import E_2x12, E_4x8, E_RED_2x10, E_RED_6x8


def last_pair_order(dims, errs, hs):
    return np.log(errs[-2] / errs[-1]) / np.log(hs[-2] / hs[-1])


def fitted_order(errs, hs):
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


def poisson_ladder(kind, p, dims, preset, correct, two_d=False):
    prob = get_preset(preset)
    errs_l2, errs_h1, hs = [], [], []
    for n in dims:
        sp = make_space(kind, p, n, 0)
        if two_d:
            sol = solve_poisson_2d(sp, sp, prob, correct=correct)
        else:
            sol = solve_poisson_1d(sp, prob, correct=correct)
        errs_l2.append(sol.err_l2)
        errs_h1.append(sol.err_h1)
        hs.append(sp.h)
    return np.array(errs_l2), np.array(errs_h1), np.array(hs)


def corrected_ladder_1d(p, dims, preset):
    """Corrected optimal-space solves: global L2 errors, L2 errors on the
    first and last p+1 elements (the correction's support), mesh sizes."""
    prob = get_preset(preset)
    errs, errs_bnd, hs = [], [], []
    for n in dims:
        sp = make_space("optimal", p, n, 0)
        sol = solve_poisson_1d(sp, prob, correct=True)
        bcoeffs = sp.extraction.T @ sol.coeffs + sol.correction
        ends = [error_b_coefficients(sp.knots, brk, bcoeffs, prob.u)[0]
                for brk in (sp.breaks[:p + 2], sp.breaks[-(p + 2):])]
        errs.append(sol.err_l2)
        errs_bnd.append(np.hypot(*ends))
        hs.append(sp.h)
    return np.array(errs), np.array(errs_bnd), np.array(hs)


def test_criterion_1_extraction_exactness(acceptance_log):
    t0 = time.perf_counter()
    cases = [
        ("optimal", 3, 4, E_4x8),
        ("optimal", 9, 2, E_2x12),
        ("optimal", 2, 4, E_4x8),
        ("optimal", 8, 2, E_2x12),
        ("reduced", 2, 6, E_RED_6x8),
        ("reduced", 8, 2, E_RED_2x10),
    ]
    bad = [f"{kind} p={p}" for kind, p, n, expected in cases
           if not np.array_equal(
               make_space(kind, p, n, 0).extraction.toarray(), expected)]
    dt = time.perf_counter() - t0
    ok = not bad
    assert acceptance_log(
        "1 extraction exactness", ok,
        f"{len(cases) - len(bad)}/{len(cases)} matrices bit-exact, "
        f"{dt:.2f}s" + (f"; mismatches: {bad}" if bad else ""))


def test_criterion_2_constraint_suite(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n_el in range(3, 65):
        for p in range(1, 11):
            for bc in (0, 1, 2):
                n = {0: n_el - 1 - (p % 2 == 0),
                     1: n_el - (p % 2 == 1),
                     2: n_el - 1}[bc]
                if n < 1:
                    continue
                sp = make_space("optimal", p, n, bc)
                assert sp.n_el == n_el
                worst = max(worst, boundary_residuals(sp))
                count += 1
            if p % 2 == 0:
                sp = make_space("reduced", p, n_el, 0)
                worst = max(worst, boundary_residuals(sp))
                count += 1
    dt = time.perf_counter() - t0
    assert acceptance_log(
        "2 constraint suite", worst <= 1e-8,
        f"worst residual {worst:.2e} over {count} spaces, {dt:.1f}s")


def test_criterion_3_outlier_counts(acceptance_log):
    t0 = time.perf_counter()
    failures = []

    def count(kind, p, n, bc):
        sp = make_space(kind, p, n, bc)
        return outlier_count(mode_errors(spectrum_1d(sp)))

    for n in (25, 50, 100):
        got = count("full", 5, n, 0)
        if got != 4:
            failures.append(f"full p=5 n={n}: {got} != 4")
    for p in range(2, 9):
        expected = {0: 2 * ((p - 1) // 2), 1: 2 * (p // 2), 2: p - 1}
        caps = {0: p - 1, 1: p, 2: p - 1}
        for bc in (0, 1, 2):
            got = count("full", p, 200, bc)
            if got > caps[bc]:
                failures.append(f"full p={p} bc={bc}: {got} > cap {caps[bc]}")
            if got != expected[bc]:
                failures.append(
                    f"full p={p} bc={bc}: {got} != {expected[bc]}")
            got = count("optimal", p, 200, bc)
            if got != 0:
                failures.append(f"optimal p={p} bc={bc}: {got} != 0")
    dt = time.perf_counter() - t0
    assert acceptance_log(
        "3 outlier counts", not failures,
        f"full 4/4/4 at n=25/50/100, remark values and caps at n=200, "
        f"optimal all zero, {dt:.1f}s"
        + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_bound_compliance(acceptance_log):
    t0 = time.perf_counter()
    min_e = np.inf
    max_excess = -np.inf
    for p in range(1, 7):
        for bc in (0, 1, 2):
            sp = make_space("optimal", p, 100, bc)
            rep = mode_errors(spectrum_1d(sp))
            ok_modes = ~rep.zero_mode
            min_e = min(min_e, rep.e_freq[ok_modes].min())
            max_excess = max(max_excess,
                             (rep.e_freq[ok_modes]
                              - rep.bound[ok_modes]).max())
    dt = time.perf_counter() - t0
    ok = min_e >= -1e-9 and max_excess <= 1e-9
    assert acceptance_log(
        "4 bound compliance", ok,
        f"min rel err {min_e:.2e}, max err-bound {max_excess:.2e}, "
        f"{dt:.1f}s")


def test_criterion_5_projection_bound(acceptance_log):
    t0 = time.perf_counter()
    n = 40
    worst_l2 = 0.0
    worst_h1 = 0.0
    for p in range(1, 6):
        sp = make_space("optimal", p, n, 0)
        h = sp.h
        for l in range(1, n // 2 + 1):
            w = l * np.pi
            u = lambda x: np.sin(w * x)
            du = lambda x: w * np.cos(w * x)
            norm_r = w ** (p + 1) / np.sqrt(2.0)
            el2, _ = function_error(sp, l2_projection(sp, u), u)
            _, eh1 = function_error(sp, ritz_projection(sp, du), u, du)
            worst_l2 = max(worst_l2, el2 / ((h / np.pi) ** (p + 1) * norm_r))
            worst_h1 = max(worst_h1, eh1 / ((h / np.pi) ** p * norm_r))
    dt = time.perf_counter() - t0
    ok = worst_l2 <= 1 + 1e-6 and worst_h1 <= 1 + 1e-6
    assert acceptance_log(
        "5 projection bound", ok,
        f"worst error/bound ratios: L2 {worst_l2:.3f}, H1 {worst_h1:.3f}, "
        f"{dt:.1f}s")


def test_criterion_6_convergence_orders(acceptance_log):
    t0 = time.perf_counter()
    dims = (16, 32, 64, 128)
    results = []
    failures = []
    for kind in ("optimal", "full", "reduced"):
        degrees = (2, 4) if kind == "reduced" else (2, 3, 4, 5)
        for p in degrees:
            el2, eh1, hs = poisson_ladder(kind, p, dims, "sin2pi", False)
            kl2 = fitted_order(el2, hs)
            kh1 = fitted_order(eh1, hs)
            results.append(f"{kind} p={p}: {kl2:.2f}/{kh1:.2f}")
            if not abs(kl2 - (p + 1)) <= 0.25:
                failures.append(f"{kind} p={p} L2 order {kl2:.3f}")
            if not abs(kh1 - p) <= 0.25:
                failures.append(f"{kind} p={p} H1 order {kh1:.3f}")
    dt = time.perf_counter() - t0
    assert acceptance_log(
        "6 convergence orders", not failures,
        f"fitted L2/H1 orders {'; '.join(results)}, {dt:.1f}s"
        + (f"; out of window: {failures}" if failures else ""))


def test_criterion_7_correction_recovery(acceptance_log):
    # Same ladder as criterion 6.  Finer ladders are unusable here: the
    # corrected p=5 error reaches ~1e-14 at n=256, so a last-pair order
    # there measures the rounding floor rather than the method.  Odd p
    # follows the error model A h^{p+1} + B h^{p+3/2} with B local to the
    # correction's support (module docstring), hence its two edges.
    t0 = time.perf_counter()
    dims = (16, 32, 64, 128)
    details = []
    failures = []
    for p in (3, 4, 5):
        el2_plain, _, hs = poisson_ladder("optimal", p, dims, "ex73", False)
        k_plain = last_pair_order(dims, el2_plain, hs)
        el2_corr, el2_bnd, _ = corrected_ladder_1d(p, dims, "ex73")
        k_corr = last_pair_order(dims, el2_corr, hs)
        k_bnd = last_pair_order(dims, el2_bnd, hs)
        details.append(f"p={p}: off {k_plain:.2f}, on {k_corr:.2f}, "
                       f"boundary {k_bnd:.2f}")
        if not k_plain <= 3.2:
            failures.append(f"p={p} uncorrected order {k_plain:.3f} > 3.2")
        if p % 2 == 0:
            if not abs(k_corr - (p + 1)) <= 0.3:
                failures.append(f"p={p} corrected order {k_corr:.3f} "
                                f"outside {p + 1}+-0.3")
            continue
        lo, hi = p + 1 - 0.3, p + 1.5 + 0.3
        if not lo <= k_corr <= hi:
            failures.append(f"p={p} corrected order {k_corr:.3f} "
                            f"outside [{lo:.1f}, {hi:.1f}]")
        if not abs(k_bnd - (p + 1.5)) <= 0.3:
            failures.append(f"p={p} boundary order {k_bnd:.3f} "
                            f"outside {p + 1.5}+-0.3")
    dt = time.perf_counter() - t0
    assert acceptance_log(
        "7 correction recovery", not failures,
        f"final L2 orders {'; '.join(details)}, {dt:.1f}s"
        + (f"; out of window: {failures}" if failures else ""))


def test_criterion_8_2d_spectrum(acceptance_log):
    t0 = time.perf_counter()
    n = 50
    failures = []
    full_counts = []
    for p in (3, 4, 5):
        s1 = spectrum_1d(make_space("optimal", p, n, 0))
        sp = collate_2d(s1, s1)
        recomputed = s1.eigenvalues[sp.l1 - 1] + s1.eigenvalues[sp.l2 - 1]
        if not np.array_equal(sp.omega_sq_h, recomputed):
            failures.append(f"p={p}: tensor identity broken")
        got = outlier_count(mode_errors_2d(sp))
        if got != 0:
            failures.append(f"optimal p={p}: {got} outliers")
        full = spectrum_2d(make_space("full", p, n, 0),
                           make_space("full", p, n, 0))
        fc = outlier_count(mode_errors_2d(full))
        full_counts.append(fc)
        if fc == 0:
            failures.append(f"full p={p}: no outlier layer")
    dt = time.perf_counter() - t0
    assert acceptance_log(
        "8 2d spectrum", not failures,
        f"identity exact, optimal clean, full outliers "
        f"{full_counts} for p=3,4,5, {dt:.1f}s"
        + (f"; failures: {failures}" if failures else ""))


def test_criterion_9_2d_correction(acceptance_log):
    t0 = time.perf_counter()
    dims = (8, 16, 32)
    details = []
    failures = []
    for p in (3, 4):
        el2_plain, _, hs = poisson_ladder("optimal", p, dims, "ex75",
                                          False, two_d=True)
        k_plain = last_pair_order(dims, el2_plain, hs)
        el2_corr, _, _ = poisson_ladder("optimal", p, dims, "ex75",
                                        True, two_d=True)
        k_corr = last_pair_order(dims, el2_corr, hs)
        details.append(f"p={p}: off {k_plain:.2f}, on {k_corr:.2f}")
        if not k_plain <= 3.5:
            failures.append(f"p={p} uncorrected order {k_plain:.3f} > 3.5")
        if not abs(k_corr - (p + 1)) <= 0.4:
            failures.append(f"p={p} corrected order {k_corr:.3f} "
                            f"outside {p + 1}+-0.4")
    dt = time.perf_counter() - t0
    assert acceptance_log(
        "9 2d correction", not failures,
        f"final L2 orders {'; '.join(details)}, {dt:.1f}s"
        + (f"; out of window: {failures}" if failures else ""))


def test_criterion_10_oracle_equivalence(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_pencil = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 9))
        a = rng.standard_normal((k, k))
        s = a @ a.T + k * np.eye(k)
        b = rng.standard_normal((k, k))
        m = b @ b.T + k * np.eye(k)
        w_fast, _ = generalized_eigen_sym(s, m)
        w_oracle = jacobi_generalized_eigen(s, m)
        worst_pencil = max(worst_pencil, np.max(
            np.abs(w_fast - w_oracle) / np.abs(w_oracle)))

    worst_disp = 0.0
    for n_el in (4, 8, 16, 32):
        sp = make_space("full", 1, n_el - 1, 0)
        assert sp.n_el == n_el
        w, _ = generalized_eigen_sym(assemble_stiffness(sp),
                                     assemble_mass(sp))
        h = 1.0 / n_el
        l = np.arange(1, n_el)
        c = np.cos(l * np.pi * h)
        exact = (6.0 / h ** 2) * (1.0 - c) / (2.0 + c)
        worst_disp = max(worst_disp, np.max(np.abs(w - exact) / exact))
    dt = time.perf_counter() - t0
    ok = worst_pencil <= 1e-11 and worst_disp <= 1e-10
    assert acceptance_log(
        "10 oracle equivalence", ok,
        f"pencil mismatch {worst_pencil:.2e}, dispersion mismatch "
        f"{worst_disp:.2e}, {dt:.1f}s")

"""Discrete spectra of the 1D and tensor-product 2D Laplace eigenproblem.

The continuous problem -u'' = omega^2 u on (0, 1) has frequencies
l*pi (Dirichlet, l >= 1), (l-1)*pi (Neumann, l >= 1, so the first mode is
the constant with frequency 0) and (l - 1/2)*pi (mixed).  Discrete modes
are matched to exact ones by ascending order; in 2D every mode is the
tensor pair (l1, l2) produced by fast diagonalization, with squared
frequencies adding, so a tensor report is built straight from the two
univariate spectra.

Eigenpairs of optimal and reduced spaces need no dense solve: in the
reflection-fold basis of :mod:`eigenspline.spaces` the exact waves sampled
at the row centres are the discrete eigenvectors, and their eigenvalues
are samples of the cardinal-spline symbol, taken in closed form.  They are
accepted under a residual, ordering and M-orthonormality certificate on
the assembled pencil and kept as eigenvalues and amplitudes only.  The
certificate costs O(n p^2): every row of the pencil but the first and
last p + 2 must be its middle row bitwise, where the waves are exact
eigenvectors of the Toeplitz part (Strang, SIAM Review 41, 1999), so only
those boundary rows are multiplied out, and the rows between enter
through the symbol and closed-form lattice sums; no n-length array is
formed per mode.  Full spaces and uncertified waves use the
generalized eigensolver: when both ends share a boundary type, x -> 1 - x
maps the basis onto itself reversed, so the pencil splits into an even and
an odd half of half the size (Cantoni & Butler, Linear Algebra Appl. 13,
1976), each solved on its own, and the merged modes are never formed as
one n x n array; mixed ends solve the whole pencil.  No spectrum keeps
its eigenvectors.

Mode reports carry, per mode, the relative frequency error, the L2
eigenfunction error (against the unit-norm exact eigenfunction, signs
aligned by the L2 overlap), and for optimal subspaces the a-priori
relative bound 1/(1 - (omega_l/omega_{n+1})^{p+1}) - 1.

The eigenfunction errors use the p+3-point rule on every element, by one
of two routes.  Both take the element classes of :mod:`eigenspline.splines`,
the exact waves from the same per-class tables at the offsets from the
span midpoints, and the midpoints' sines and cosines from one table,
reduced exactly by integer index.  Certified waves take a closed form:
their B-spline coefficients are the wave sampled at the B-spline centres,
so on every knot span the discrete and the exact mode are both the sine
and cosine at the span midpoint times fixed functions of the offset, and
each mode's squared error is a quadratic form in the midpoint sums of
sin^2 and cos^2, each class's sum two table lookups by Lagrange's
identity; the B-splines are evaluated once per class.  Full spaces
and uncertified waves take the sampled pass: the B-splines are sampled
once into a sparse matrix, rows scaled by the square roots of the
weights, and each block of modes is mapped to B-spline coefficients
through the space's signed assignment and sampled through it, the exact
waves coming from angle addition over the span midpoints.  Modes of a
split pencil are even or odd, as are their exact waves, so that pass
samples only the elements left of 1/2, and each block of merged modes is
built from the two half solutions on the rows those elements touch.
Modes go in fixed-size blocks, so no dense quadrature-points x n array is
formed.
The bound columns take the exact frequencies once per spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import _pencil, _pencil_rows, gauss_legendre, quadrature_grid
from .eigensolve import generalized_eigen_sym
from .exceptions import ConfigError
from .spaces import (BoundaryType, SpaceKind, SpaceSpec, _fold_centres,
                     _layout_params, _unfold)
from .splines import (_class_tables, _classes, _eulerian, _grid_samples,
                      _layout)

ZERO_MODE_TOL = 1e-12
# Modes per block of the eigenfunction-error pass and of the wave
# certificate: bounds their working memory at a few (quadrature points x
# EFUN_BLOCK) and (boundary rows x EFUN_BLOCK) arrays.
EFUN_BLOCK = 64
# Wave certificate: allowed residual and M-orthonormality defect, in units
# of n^2 eps (the growth of cond(S)), and the number of columns sampled
# for the orthonormality check.
WAVE_TOL = 64.0
WAVE_SAMPLE = 32
# Absolute slack on an optimal mode's a priori bound before it can count
# as an outlier.
BOUND_TOL = 1e-10


def exact_frequencies(bc, count) -> np.ndarray:
    """First ``count`` exact frequencies, ascending (l = 1, ..., count)."""
    if count < 1:
        raise ConfigError("need at least one frequency")
    l = np.arange(1, count + 1, dtype=float)
    bc = BoundaryType(bc)
    if bc == BoundaryType.DIRICHLET:
        return l * np.pi
    if bc == BoundaryType.NEUMANN:
        return (l - 1.0) * np.pi
    return (l - 0.5) * np.pi


@dataclass
class Spectrum1D:
    """Solved univariate eigenproblem on a space; no eigenvector is kept.

    Mode k+1 is M-orthonormal (unit L2 norm) with sign fixed so that
    ``overlaps[k]``, its L2 overlap with the exact eigenfunction, is
    nonnegative; ``e_fun[k]`` is its L2 distance to the unit-norm exact
    eigenfunction.  Both are integrated with the p+3-point rule, element by
    element: in closed form for certified waves, sampled otherwise.
    """

    spec: SpaceSpec
    eigenvalues: np.ndarray
    frequencies: np.ndarray
    overlaps: np.ndarray = field(repr=False)
    e_fun: np.ndarray = field(repr=False)


def spectrum_1d(spec: SpaceSpec) -> Spectrum1D:
    """Assemble and solve the eigenproblem on the space: certified waves
    where they hold, else the generalized eigensolver, on the two mirror
    halves when both ends share a boundary type, and the sampled error
    pass."""
    s, m, _, _ = _pencil(spec)
    waves = spec.kind != SpaceKind.FULL and _certified_waves(spec, s, m)
    if waves:
        w, nu = waves
        overlaps, e_fun = _wave_errors(spec, nu)
    elif spec.bc == BoundaryType.MIXED:
        w, v = generalized_eigen_sym(s, m)
        overlaps, e_fun = _eigenfunction_errors(spec, v)
    else:
        w, halves, order = _mirror_eigenpairs(s, m)
        overlaps, e_fun = _eigenfunction_errors(spec, halves, order)
    return Spectrum1D(spec=spec, eigenvalues=w,
                      frequencies=np.sqrt(np.clip(w, 0.0, None)),
                      overlaps=np.abs(overlaps), e_fun=e_fun)


def _mirror_eigenpairs(s, m):
    """(eigenvalues ascending, (y_even, y_odd), order) of a pencil that
    commutes with the reversal J of the basis, as it does on every space
    whose two ends share a boundary type (x -> 1 - x maps the basis onto
    itself reversed).

    The pencil is solved on the even and odd halves of
    :meth:`SymBandMatrix.mirror_halves`, which split its mirror-symmetrised
    form exactly, and the eigenvalues merge by a stable sort: mode l is
    column order[l] of [y_even, y_odd].  The merged eigenvectors are never
    formed; :func:`_mirror_modes` builds any block of them.
    """
    (s_even, s_odd), (m_even, m_odd) = s.mirror_halves(), m.mirror_halves()
    w_even, y_even = generalized_eigen_sym(s_even, m_even)
    w_odd, y_odd = generalized_eigen_sym(s_odd, m_odd)
    w = np.concatenate((w_even, w_odd))
    order = np.argsort(w, kind="stable")
    return w[order], (y_even, y_odd), order


def _mirror_modes(halves, cols, rows):
    """Rows 0, ..., rows-1 of the merged modes ``cols`` (indices into
    [y_even, y_odd]), the other rows zero, as an (n, cols) array: column
    y of the even half is [y; J y] / sqrt(2) (for odd n the even half's
    last entry is the middle one, unscaled), column y of the odd half
    [y; -J y] / sqrt(2)."""
    y_even, y_odd = halves
    k = y_odd.shape[0]
    n = y_even.shape[0] + k
    even = cols < y_even.shape[1]
    top = np.empty((k, cols.size))
    top[:, even] = y_even[:k, cols[even]]
    top[:, ~even] = y_odd[:, cols[~even] - y_even.shape[1]]
    top *= np.sqrt(0.5)
    out = np.zeros((n, cols.size))
    out[:min(k, rows)] = top[:rows]
    if n > 2 * k and rows > k:
        out[k, even] = y_even[k, cols[even]]
    low = n - k
    if rows > low:
        out[low:rows] = top[::-1][:rows - low] * np.where(even, 1.0, -1.0)
    return out


def _sine_table(den):
    """sin(pi j / (2 den)) for j = 0, ..., 4 den - 1, the first quadrant's
    sines extended by symmetry: a lookup at j mod 4 den is sin(pi j /
    (2 den)) for any integer j, exactly reduced, and zero exactly at
    j = 0 and 2 den."""
    quadrant = np.sin(np.pi / (2 * den) * np.arange(den + 1))
    half_turn = np.concatenate((quadrant, quadrant[-2:0:-1]))
    return np.concatenate((half_turn, -half_turn))


def _cos_sums(table, start, half, count):
    """sum_{i < count} cos(u (start + 2 i half)), u = pi / (2 den), for
    integers start, 0 <= half < 4 den (arrays, broadcast) and count >= 0,
    from the :func:`_sine_table` of den.

    Lagrange's identity makes the sum a difference of two lookups,
    (sin(u (start + (2 count - 1) half)) - sin(u (start - half))) /
    (2 sin(u half)); where sin(u half) is 0 every term is cos(u start).
    Near that zero the quotient loses about eps / |sin(u half)| <= den eps
    / 2, the order of the rounding of a sum of count terms.
    """
    size = table.size
    s = table[half]
    first = (start - half) % size
    num = table[(first + 2 * count * half) % size] - table[first]
    flat = s == 0.0
    if flat.any():
        s = np.where(flat, 0.5, s)
        num = np.where(flat, count * table[(start + size // 4) % size], num)
    return num / (2.0 * s)


def _certified_waves(spec: SpaceSpec, s, m):
    """(eigenvalues ascending, amplitudes nu) of an optimal or reduced
    pencil S, M, or None when the waves fail the certificate.

    Mode l is the wave nu_l wave(omega_l c_i) over the fold's row centres
    c_i, with the symbol's value (:func:`_symbol_frequencies`, squared) as
    eigenvalue, so that no eigenvalue carries the pencil's round-off, and
    the amplitude nu_l = 1 / sqrt(h m_p(theta_l) sum_i wave(omega_l
    c_i)^2) of an eigenvector of M, from the mass symbol m_p of
    :func:`_mass_symbol` and the sum in closed form, so that it carries
    none of the cancellation of v^T M v where m_p is small (theta near
    pi).  The certificate checks on the pencil that the symbol applies:
    every row between the first and last p + 2 of S and of M is the middle
    row bitwise, every residual |S v - lambda M v| is at most ``WAVE_TOL *
    n^2 * eps`` times the largest |S v|, the eigenvalues ascend strictly,
    and |V^T M V - I| on ``WAVE_SAMPLE`` fixed columns is at most the same
    tolerance; :func:`_wave_residuals` takes these in O(n p^2), with no
    n-length array per mode.
    """
    n = spec.n
    tol = WAVE_TOL * n * n * np.finfo(float).eps
    out = _wave_residuals(spec, s, m)
    if out is None:
        return None
    lam, nu, norms, gram = out
    s_norm, res = (norms * (nu * nu)).max(axis=1)
    if not ((lam[1:] > lam[:-1]).all() and res <= tol * tol * s_norm
            and np.abs(gram - np.eye(len(gram))).max() <= tol):
        return None
    return lam, nu


def _wave_residuals(spec: SpaceSpec, s, m):
    """(lam, nu, norms, gram) of the waves of :func:`_certified_waves`:
    norms holds each mode's |S v|^2 and |S v - lambda M v|^2 with v the
    unscaled wave, gram V^T M V on the ``WAVE_SAMPLE`` columns; or None
    when some row between the first and last b = p + 2 of S or of M is
    not the middle row.

    The row centres are equally spaced, theta_l = omega_l h apart, so on a
    row i whose band entries are those of the middle row, (a_0, a_1, ...,
    a_w) on either side, A v = sigma_A(theta) v_i with sigma_A(theta) =
    a_0 + 2 sum_d a_d cos(d theta): the waves are the eigenvectors of the
    fold's Toeplitz-plus-Hankel pencil (Strang, SIAM Review 41, 1999).
    So the first and last b rows are taken explicitly, from the band, in
    blocks of ``EFUN_BLOCK`` modes, and the rows between as sigma_S v_i
    and sigma_M v_i, their squares summed in closed form
    (:func:`_cos_sums`).  The Gram matrix takes M V the same way; its
    rows between, a WAVE_SAMPLE x WAVE_SAMPLE product, go in blocks of
    ``EFUN_BLOCK`` rows.
    """
    n, p = spec.n, spec.p
    freq, mass = _wave_symbol(spec)
    lam = freq ** 2
    # rows [0, lo) and [hi, n) explicitly, [lo, hi) from the middle row
    lo = min(p + 2, n)
    hi = max(n - p - 2, lo)
    split = _pencil_rows(s, m, lo, hi)
    if split is None:
        return None
    mid, rows, cols, edge = split
    bw = s.bandwidth
    den, sigma, _ = _layout_params(spec.kind, p, n, spec.bc)
    z = _fold_centres(p, den, sigma, spec.bc)
    c = z / den
    omega = exact_frequencies(spec.bc, n)
    # omega = pi k / 2, so with u = pi / (2 den) the angles 2 omega c_i =
    # u 2k z_i and theta = omega h = u 2k are table lookups
    k2 = 2 * np.rint(2.0 * omega / np.pi).astype(int)
    table = _sine_table(den)
    neumann = spec.bc == BoundaryType.NEUMANN
    # sums of wave^2 = (1 +- cos(2 omega c_i)) / 2 over all rows and over
    # the rows between
    count = np.array([[n], [hi - lo]])
    cos2 = _cos_sums(table, np.outer((z[0], z[0] + 2 * lo), k2), k2, count)
    squares = 0.5 * (count + cos2 if neumann else count - cos2)
    nu = 1.0 / np.sqrt(spec.h * mass * squares[0])
    # cos(d theta) for d = 1, ..., w, a quarter turn on from the sine
    cos_d = table[(np.outer(k2, np.arange(1, bw + 1)) + den) % table.size]
    sym = mid[:, 0, None] + 2.0 * (mid[:, 1:] @ cos_d.T)
    norms = np.square((sym[0], sym[0] - lam * sym[1])) * squares[1]
    wave = np.cos if neumann else np.sin
    at, minus = c[cols, None], -lam
    for first in range(0, n, EFUN_BLOCK):
        blk = slice(first, first + EFUN_BLOCK)
        vb = at * omega[blk]
        prod = edge @ wave(vb, out=vb)
        prod[1] *= minus[blk]
        prod[1] += prod[0]
        norms[:, blk] += np.einsum("srl,srl->sl", prod, prod)
    sample = min(n, WAVE_SAMPLE)
    idx = np.arange(sample) * (n - 1) // max(sample - 1, 1)
    vs = at * omega[idx]
    vs = wave(vs, out=vs) * nu[idx]
    gram = vs[np.searchsorted(cols, rows)].T @ (edge[1] @ vs)
    between = np.zeros((sample, sample))
    for first in range(lo, hi, EFUN_BLOCK):
        vb = c[first:min(first + EFUN_BLOCK, hi), None] * omega[idx]
        vb = wave(vb, out=vb) * nu[idx]
        between += vb.T @ vb
    gram += between * sym[1, idx]
    return lam, nu, norms, gram


def _symbol_frequencies(spec: SpaceSpec) -> np.ndarray:
    """Closed-form discrete frequencies of an optimal or reduced space
    (:func:`_wave_symbol`)."""
    return _wave_symbol(spec)[0]


def _wave_symbol(spec: SpaceSpec):
    """(omega_h, m_p(theta)): the closed-form discrete frequencies of an
    optimal or reduced space and its mass symbol at theta_l = omega_l h.

    The pencil's symbol at theta_l = omega_l h.  With N_q the cardinal
    B-spline, the mass symbol is m_p(theta) = sum_{|k|<=p} N_{2p+1}(p+1+k)
    cos(k theta); the stiffness symbol is 4 sin^2(theta/2) m_{p-1}(theta),
    since N_{2p+1}'' is the second difference of N_{2p-1}.  So

        omega_h = 2 sin(theta / 2) sqrt(m_{p-1} / m_p) / h,

    and the Neumann constant (theta = 0) gets exactly 0.  Each m_p is a
    polynomial in t = cos^2(theta/2) with positive coefficients
    (:func:`_mass_symbol`), so no sum cancels at any theta: the cosine sum
    itself loses up to 7e5 eps near theta = pi at p = 16.  These are the
    pencil's eigenvalues in exact arithmetic, and the certified waves
    report them.
    """
    p, h = spec.p, spec.h
    theta = exact_frequencies(spec.bc, spec.n) * h
    t = np.cos(0.5 * theta) ** 2
    # m_{p-1} (its top coefficient padded with 0, which Horner's rule
    # passes exactly) and m_p in one evaluation
    coeffs = np.zeros((p + 1, 2))
    coeffs[:p, 0] = _mass_symbol(p - 1)
    coeffs[:, 1] = _mass_symbol(p)
    low, mass = np.polynomial.polynomial.polyval(t, coeffs)
    return 2.0 * np.sin(0.5 * theta) * np.sqrt(low / mass) / h, mass


@functools.cache
def _mass_symbol(p):
    """Coefficients, ascending in t = cos^2(theta/2), of the mass symbol
    m_p(theta) = sum_{|k|<=p} N_q(p+1+k) cos(k theta), q = 2p + 1, each
    rounded once from its exact value; read-only, computed once per degree.

    q! N_q(j + 1) is the Eulerian number A(q, j), and cos(k theta) =
    T_k(2t - 1) with integer coefficients, so q! m_p is an integer
    polynomial in t.  Its coefficients are positive, as the roots of the
    Euler-Frobenius polynomial sum_j A(q, j) z^j are negative reals.
    """
    q = 2 * p + 1
    euler = _eulerian(q)
    coeffs = [euler[p]] + [0] * p
    # T_0 and T_1 at x = 2t - 1, then T_k = (4t - 2) T_{k-1} - T_{k-2}
    prev, cheb = [1], [-1, 2]
    for k in range(1, p + 1):
        for i, c in enumerate(cheb):
            coeffs[i] += 2 * euler[p + k] * c
        prev, cheb = cheb, [4 * a - 2 * b - c for a, b, c in zip(
            [0] + cheb, cheb + [0], prev + [0, 0])]
    out = np.array([c / math.factorial(q) for c in coeffs])
    out.flags.writeable = False
    return out


def _eigenfunction_errors(spec: SpaceSpec, v, order=None):
    """L2 overlaps (before sign alignment) and sign-aligned L2 errors of
    the modes ``v[:, k]`` against the exact eigenfunctions l = k+1, or,
    given the merge ``order`` of :func:`_mirror_eigenpairs`, of the modes
    of the half solutions ``v = (y_even, y_odd)``.

    Both sides are sampled pre-weighted: the B-spline samples carry
    sqrt(w) per quadrature point, the exact waves from
    :func:`_exact_waves` sqrt(w) times their amplitude, so each block of
    ``EFUN_BLOCK`` modes is one sparse product, two plain sums of
    products, a sign flip and a subtraction.

    Without ``order`` every element is sampled.  With it, each mode has a
    parity under x -> 1 - x (+1 from the even half, -1 from the odd one,
    on a space whose elements mirror each other), and only the elements
    left of 1/2 are sampled, the middle element of an odd element count at
    half weight, and each sampled point stands for itself and its mirror,
    where the exact wave takes its parity (-1)^(l-1) and the mode its
    own.  With q the product of the two, the overlap is (1 + q) times the
    sampled one and the squared error the sum of (u - s u_h)^2 and
    (u - q s u_h)^2 over the sampled points, s the alignment sign.  A mode
    whose parity is not its exact wave's (q = -1, as in the
    near-degenerate top pair of a full space) has zero overlap and the
    error sqrt(2 (|u|^2 + |u_h|^2)), whatever its sign.  Each block of
    merged modes is built (:func:`_mirror_modes`) only on the rows of the
    B-splines active left of 1/2, so no n x n array is formed.
    """
    n, m = spec.n, spec.p + 3
    half = order is not None
    n_el = (spec.n_el + 1) // 2 if half else spec.n_el
    cls, reps, _, offsets, weights, sin_mid, _ = _class_geometry(
        spec, n_el, m)
    middle = half and spec.n_el % 2 == 1
    breaks = spec.breaks[:n_el + 1]
    xs, ws = quadrature_grid(breaks, m)
    if middle:
        ws[-m:] *= 0.5
    b0 = _grid_samples(spec.knots, xs, 0, (cls, reps))[0]
    b0.data *= np.repeat(np.sqrt(ws), spec.p + 1)
    omega = exact_frequencies(spec.bc, n)
    neumann = spec.bc == BoundaryType.NEUMANN
    # q = 0 without parities: every point counts once
    q = np.zeros(n)
    if half:
        parity = np.where(order < v[0].shape[1], 1.0, -1.0)
        q = parity * np.where(np.arange(n) % 2, -1.0, 1.0)
        rows = spec.rows[:n_el + spec.p].max() + 1
    overlaps = np.empty(n)
    e_fun = np.empty(n)
    for lo in range(0, n, EFUN_BLOCK):
        blk = slice(lo, min(lo + EFUN_BLOCK, n))
        ex = _exact_waves(cls, offsets, weights, sin_mid, omega[blk], neumann)
        if middle:
            ex[-m:] *= np.sqrt(0.5)
        modes = _mirror_modes(v, order[blk], rows) if half else v[:, blk]
        uh = b0 @ _unfold(spec, modes)
        ov = np.einsum("qk,qk->k", ex, uh) * (1.0 + q[blk])
        # the modes of swapped parity, before the subtraction below
        # overwrites the exact waves
        flip = q[blk] < 0.0
        e2_flip = 2.0 * (np.einsum("qk,qk->k", ex[:, flip], ex[:, flip])
                         + np.einsum("qk,qk->k", uh[:, flip], uh[:, flip]))
        uh *= np.where(ov < 0.0, -1.0, 1.0)
        diff = np.subtract(ex, uh, out=ex)
        e2 = np.einsum("qk,qk->k", diff, diff) * (1.0 + np.abs(q[blk]))
        e2[flip] = e2_flip
        overlaps[blk] = ov
        e_fun[blk] = np.sqrt(e2)
        # free this block's samples before the next block allocates its own
        del ex, uh, diff, modes
    return overlaps, e_fun


def _class_geometry(spec: SpaceSpec, n_el, m):
    """(cls, reps, points, offsets, weights, sin_mid, cos2_sums): the
    m-point rule on elements 0, ..., n_el-1 in the classes of
    ``splines._classes``.

    Element e lies in the knot span centred at c_e = (2e + 1 - sigma)/den
    (the knots' layout).  Class c's points are ``points[c]`` on element
    reps[c] (rows of ``quadrature_grid``) and c_e + offsets[c] on each
    member e, with weights ``weights[c]``.  ``sin_mid(omega, quarter)`` is
    sin(omega c_e + quarter pi/2), (elements, modes), at omega = pi k/2,
    k an integer: the angle is pi j/(2 den) with j = k (2e + 1 - sigma) +
    quarter den reduced mod 4 den, one lookup in :func:`_sine_table`,
    however large omega c_e is.  ``cos2_sums(omega)`` is the sum of
    cos(2 omega c_e) over each class, (classes, modes): a class is a run
    of consecutive elements, so :func:`_cos_sums` takes it from two
    lookups.
    """
    den, sigma, _ = layout = _layout(spec.knots)
    breaks = spec.breaks[:n_el + 1]
    cls, reps = _classes(spec.knots, breaks, layout)
    left, right = breaks[reps, None], breaks[reps + 1, None]
    mid, half = 0.5 * (left + right), 0.5 * (right - left)
    x, w = gauss_legendre(m)
    table = _sine_table(den)
    centres = 2 * np.arange(n_el) + 1 - sigma

    def sin_mid(omega, quarter=0):
        j = np.outer(centres, np.rint(2.0 * omega / np.pi).astype(int))
        j += quarter * den
        j %= 4 * den
        return table[j]

    def cos2_sums(omega):
        # 2 omega c_e = u 2 k (2e + 1 - sigma), u = pi / (2 den)
        k2 = 2 * np.rint(2.0 * omega / np.pi).astype(int)
        count = np.bincount(cls)[:, None]
        return _cos_sums(table, centres[reps, None] * k2, k2, count)

    offsets = mid - ((2 * reps + 1 - sigma) / den)[:, None] + half * x
    return (cls, reps, mid + half * x, offsets, half * w, sin_mid,
            cos2_sums)


def _offset_waves(offsets, weights, omega, neumann):
    """Per-class tables sqrt(w) a (cos, -+sin)(omega y), each (classes,
    points, modes), at the offsets y and weights w of
    :func:`_class_geometry`: the exact waves' parts in both error passes.
    The sine is negated for Neumann; a = sqrt(2), 1 for the Neumann
    constant (omega = 0)."""
    amp = np.where(omega > 0.0, np.sqrt(2.0), 1.0)
    wy = offsets[:, :, None] * omega
    sw = np.sqrt(weights)[:, :, None]
    c_off = np.cos(wy) * sw * amp
    s_off = np.sin(wy, out=wy) * sw * (-amp if neumann else amp)
    return c_off, s_off


def _exact_waves(cls, offsets, weights, sin_mid, omega, neumann):
    """The exact waves of :func:`_offset_waves` at the points c_e +
    offsets[cls_e] of :func:`_class_geometry`, (elements * points, modes),
    by angle addition over the span midpoints c_e: the largest class is
    broadcast over all elements and only the others are rewritten."""
    c_off, s_off = _offset_waves(offsets, weights, omega, neumann)
    # sin(a + d) = sin a cos d + cos a sin d,
    # cos(a + d) = cos a cos d - sin a sin d
    f, g = sin_mid(omega, quarter=neumann), sin_mid(omega, quarter=1 - neumann)
    main = np.bincount(cls).argmax()
    ex = np.multiply(f[:, None, :], c_off[main])
    ex += g[:, None, :] * s_off[main]
    other = np.flatnonzero(cls != main)
    ex[other] = f[other, None, :] * c_off[cls[other]] \
        + g[other, None, :] * s_off[cls[other]]
    return ex.reshape(-1, omega.size)


def _wave_errors(spec: SpaceSpec, nu):
    """Overlaps and errors, as :func:`_eigenfunction_errors` returns them,
    of certified waves with amplitudes ``nu``, in closed form.

    Mode l's B-spline coefficients are nu wave(omega t_j) at the B-spline
    centres t_j (see :mod:`eigenspline.spaces`).  On a knot span with
    midpoint c the p+1 active B-splines are centred at c + delta_r,
    delta_r = (r - p/2) h, with pieces phi_r, the table of each class's
    representative (``splines._class_tables``), so by angle addition

        u_h(c + y) = nu (f A(y) + g B(y)),
        exact(c + y) = a (f cos(omega y) + g sin(omega y)),

    with A = sum_r cos(omega delta_r) phi_r, B = sum_r sin(omega delta_r)
    phi_r, (f, g) = (sin, cos)(omega c) (for Neumann (cos, sin)(omega c),
    with B and the sine negated) and a = sqrt(2) (1 for the Neumann
    constant); the exact parts are the tables of :func:`_offset_waves`.
    The error at an element's points is f alpha + g beta, with alpha and
    beta the sign-aligned differences of the two parts at its class's
    points (:func:`_class_geometry`), so the squared error summed over a
    class is the 2 x 2 form alpha^2 F + 2 alpha beta H + beta^2 G, with
    F, H, G the class sums of f^2, f g, g^2.  The form is diagonal: alpha
    is even and beta odd in y, so sum alpha beta vanishes on the
    symmetric rule of a whole span, and a cut end element is half a span
    centred on an end of [0, 1], where f g = 0.  The overlap splits alike.
    F and G follow from the double angle: each class's sum of cos(2 omega
    c) is a lattice sum over its run of elements, two exactly reduced
    lookups by Lagrange's identity (:func:`_cos_sums`).  Modes go in
    blocks of ``EFUN_BLOCK``, so only (classes x points x ``EFUN_BLOCK``)
    tables are formed, and nothing per element.
    """
    n, p = spec.n, spec.p
    cls, reps, points, offsets, weights, _, cos2_sums = _class_geometry(
        spec, spec.n_el, p + 3)
    phi = _class_tables(spec.knots, reps, points, 0)[0]
    sw = np.sqrt(weights)[:, :, None]
    count = np.bincount(cls)[:, None]
    delta = (np.arange(p + 1) - 0.5 * p) * spec.h
    omega = exact_frequencies(spec.bc, n)
    neumann = spec.bc == BoundaryType.NEUMANN
    odd = -1.0 if neumann else 1.0
    # f^2, g^2 = (1 -+ cos 2 omega c) / 2 (+- for Neumann), with no
    # cos^2 - sin^2 to cancel
    c2 = cos2_sums(omega)
    ff_all, gg_all = 0.5 * (count - c2), 0.5 * (count + c2)
    if neumann:
        ff_all, gg_all = gg_all, ff_all
    overlaps = np.empty(n)
    e_fun = np.empty(n)
    for lo in range(0, n, EFUN_BLOCK):
        blk = slice(lo, min(lo + EFUN_BLOCK, n))
        om = omega[blk]
        ex_a, ex_b = _offset_waves(offsets, weights, om, neumann)
        wd = np.outer(delta, om)
        uh_a = phi @ np.cos(wd) * sw * nu[blk]
        uh_b = phi @ np.sin(wd) * sw * (odd * nu[blk])
        ff, gg = ff_all[:, blk], gg_all[:, blk]
        ov = (np.einsum("ckb,ckb,cb->b", ex_a, uh_a, ff)
              + np.einsum("ckb,ckb,cb->b", ex_b, uh_b, gg))
        sign = np.where(ov < 0.0, -1.0, 1.0)
        ex_a -= uh_a * sign
        ex_b -= uh_b * sign
        e2 = (np.einsum("ckb,ckb,cb->b", ex_a, ex_a, ff)
              + np.einsum("ckb,ckb,cb->b", ex_b, ex_b, gg))
        overlaps[blk] = ov
        e_fun[blk] = np.sqrt(e2)
    return overlaps, e_fun


def _upper_bound(wl, wtop, p):
    return 0.0 if wl == 0.0 else 1.0 / (1.0 - (wl / wtop) ** (p + 1)) - 1.0


def _upper_bounds(spec: SpaceSpec):
    """Bounds on (omega_h - omega)/omega, modes 1..n of an optimal space:
    omega_h <= omega_l / (1 - (omega_l/omega_{n+1})^{p+1}), per mode in
    scalar arithmetic (the golden bound column is compared bitwise)."""
    freqs = exact_frequencies(spec.bc, spec.n + 1)
    return np.array([_upper_bound(wl, freqs[spec.n], spec.p)
                     for wl in freqs[:spec.n]])


@dataclass
class ModeErrorReport:
    """Per-mode errors of a univariate or tensor spectrum.

    ``specs`` holds one space per direction and ``ls`` the matching
    1-based mode indices, one array per direction; rows ascend in l (1D)
    or in exact frequency (tensor).
    """

    specs: tuple
    ls: tuple
    omega_exact: np.ndarray
    omega_h: np.ndarray
    e_freq: np.ndarray
    e_fun: np.ndarray
    bound: np.ndarray
    zero_mode: np.ndarray


def _report(specs, ls, omega_exact, omega_h, e_fun, bound):
    """Relative frequency errors; for an exact zero frequency (the
    Neumann constant, alone or in a tensor pair) the absolute error is
    taken instead and the mode is flagged."""
    zero = omega_exact <= ZERO_MODE_TOL
    e_freq = np.empty(omega_exact.size)
    e_freq[~zero] = (omega_h[~zero] - omega_exact[~zero]) / omega_exact[~zero]
    e_freq[zero] = omega_h[zero]
    return ModeErrorReport(specs=specs, ls=ls,
                           omega_exact=omega_exact, omega_h=omega_h,
                           e_freq=e_freq, e_fun=e_fun, bound=bound,
                           zero_mode=zero)


def mode_errors(spectrum: Spectrum1D) -> ModeErrorReport:
    """Match discrete to exact modes by ascending order and take errors."""
    spec = spectrum.spec
    n = spec.n
    if spec.kind == SpaceKind.OPTIMAL:
        bound = _upper_bounds(spec)
    else:
        bound = np.full(n, np.nan)
    return _report((spec,), (np.arange(1, n + 1),),
                   exact_frequencies(spec.bc, n), spectrum.frequencies,
                   spectrum.e_fun, bound)


def outlier_count(report: ModeErrorReport) -> int:
    """Number of modes whose frequency error leaves the regular branch.

    At most p_i modes per direction can be spurious, so the modes with
    l_i <= n_i - p_i in every direction are certainly on the regular
    branch (zero modes excluded); a mode is an outlier when its relative
    error exceeds twice the branch maximum.  On optimal spaces (every
    direction optimal) a mode must also exceed its a priori bound by more
    than ``BOUND_TOL``: a mode inside its bound is on the branch however
    the branch maximum compares.  On reduced spaces (every direction
    reduced) the branch is known in closed form: a mode is an outlier only
    when its frequency leaves the symbol (:func:`_symbol_frequencies`,
    squares added over the directions) by more than a relative 1e-8, so
    certified waves, which report the symbol, never count.  Requires
    n_i > 2p_i in every direction so the branch is long enough to be
    meaningful.
    """
    if any(s.n <= 2 * s.p for s in report.specs):
        raise ConfigError("need n > 2p in every direction to separate a "
                          "regular branch")
    usable = ~report.zero_mode
    if all(s.kind == SpaceKind.REDUCED_UNIFORM for s in report.specs):
        # the dense solve of an uncertified reduced space leaves the symbol
        # by at most 2.2e-10 (p=16, n=41), 45 times inside this window
        window = 1e-8
        symbol = np.sqrt(sum(_symbol_frequencies(s)[l - 1] ** 2
                             for s, l in zip(report.specs, report.ls)))
        gap = np.abs(report.omega_h / symbol - 1.0)
        return int(np.sum(usable & (gap > window)))
    regular = usable & np.all([l <= s.n - s.p for s, l
                               in zip(report.specs, report.ls)], axis=0)
    out = usable & (report.e_freq > 2.0 * np.max(report.e_freq[regular]))
    if all(s.kind == SpaceKind.OPTIMAL for s in report.specs):
        out &= report.e_freq > report.bound + BOUND_TOL
    return int(np.sum(out))


def mode_errors_2d(sp1: Spectrum1D, sp2: Spectrum1D) -> ModeErrorReport:
    """Tensor-mode errors of all n1*n2 pairs of univariate modes.

    Discrete squared frequencies are exactly the sums of the univariate
    eigenvalues (fast diagonalization); rows ascend in exact frequency,
    ties by (l1, l2).  Passing one spectrum twice gives the square space.
    The eigenfunction error uses the exact identity
    e12^2 = e1^2 + e2^2 - e1^2 e2^2 / 2 for unit-norm product modes, so the
    accurately integrated univariate errors carry over without forming any
    2D quadrature grid.
    """
    s1, s2 = sp1.spec, sp2.spec
    w1, w2 = (exact_frequencies(s.bc, s.n) for s in (s1, s2))
    l1, l2 = (l.ravel() for l in np.meshgrid(
        np.arange(1, s1.n + 1), np.arange(1, s2.n + 1), indexing="ij"))
    om_exact = np.sqrt(w1[l1 - 1] ** 2 + w2[l2 - 1] ** 2)
    order = np.lexsort((l2, l1, om_exact))
    l1, l2, om_exact = l1[order], l2[order], om_exact[order]
    om_h = np.sqrt(np.clip(sp1.eigenvalues[l1 - 1] + sp2.eigenvalues[l2 - 1],
                           0.0, None))
    e1, e2 = sp1.e_fun[l1 - 1], sp2.e_fun[l2 - 1]
    e = np.sqrt(np.clip(e1 ** 2 + e2 ** 2 - 0.5 * e1 ** 2 * e2 ** 2,
                        0.0, None))
    return _report((s1, s2), (l1, l2), om_exact, om_h, e,
                   _bound_2d(s1, s2, l1, l2, w1, w2))


def _bound_2d(s1, s2, l1, l2, w1, w2):
    if s1.kind != SpaceKind.OPTIMAL or s2.kind != SpaceKind.OPTIMAL:
        return np.full(l1.size, np.nan)
    b1, b2 = _upper_bounds(s1), _upper_bounds(s2)
    num = ((1.0 + b1[l1 - 1]) * w1[l1 - 1]) ** 2 \
        + ((1.0 + b2[l2 - 1]) * w2[l2 - 1]) ** 2
    den = w1[l1 - 1] ** 2 + w2[l2 - 1] ** 2
    out = np.full(l1.size, np.nan)
    ok = den > 0.0
    out[ok] = np.sqrt(num[ok] / den[ok]) - 1.0
    return out

"""Discrete spectra of the 1D and tensor-product 2D Laplace eigenproblem.

The continuous problem -u'' = omega^2 u on (0, 1) has frequencies
l*pi (Dirichlet, l >= 1), (l-1)*pi (Neumann, l >= 1, so the first mode is
the constant with frequency 0) and (l - 1/2)*pi (mixed).  Discrete modes
are matched to exact ones by ascending order; in 2D every mode is the
tensor pair (l1, l2) produced by fast diagonalization, with squared
frequencies adding.

Mode reports carry, per mode, the relative frequency error, the L2
eigenfunction error (against the unit-norm exact eigenfunction, signs
aligned by the L2 overlap), and for optimal subspaces the a-priori
relative bound 1/(1 - (omega_l/omega_{n+1})^{p+1}) - 1.

The eigenfunction errors use the p+3-point rule on every element.  The
B-splines are sampled once on the whole grid into a sparse matrix with the
p+1 active B-splines per point.  Modes are then taken in fixed-size
blocks: each block's eigenvectors are mapped to B-spline coefficients
through the space's stored sparse extraction, sampled through that matrix
and compared with the exact modes, so no dense quadrature-points x n basis
or mode matrix is ever formed.  The bound columns take the exact
frequencies once per spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_mass, assemble_stiffness, quadrature_grid
from .eigensolve import generalized_eigen_sym
from .exceptions import ConfigError
from .spaces import BoundaryType, SpaceKind, SpaceSpec
from .splines import basis_samples

ZERO_MODE_TOL = 1e-12
# Modes per block of the eigenfunction-error pass: bounds its working
# memory at a few (quadrature points x EFUN_BLOCK) arrays.
EFUN_BLOCK = 64


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


def exact_eigenfunction(bc, l):
    """Unit-L2-norm exact eigenfunction of mode l and its derivative."""
    bc = BoundaryType(bc)
    if l < 1:
        raise ConfigError("mode index starts at 1")
    s = np.sqrt(2.0)
    if bc == BoundaryType.DIRICHLET:
        w = l * np.pi
        return (lambda x: s * np.sin(w * x)), (lambda x: s * w * np.cos(w * x))
    if bc == BoundaryType.NEUMANN:
        w = (l - 1) * np.pi
        if l == 1:
            return (lambda x: np.ones_like(np.asarray(x, dtype=float)),
                    lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        return (lambda x: s * np.cos(w * x)), (lambda x: -s * w * np.sin(w * x))
    w = (l - 0.5) * np.pi
    return (lambda x: s * np.sin(w * x)), (lambda x: s * w * np.cos(w * x))


@dataclass
class Spectrum1D:
    """Solved univariate eigenproblem on a space.

    ``vectors[:, k]`` is mode k+1, M-orthonormal (unit L2 norm) with sign
    fixed so its overlap with the exact eigenfunction is nonnegative.
    ``overlaps[k]`` is that L2 overlap and ``e_fun[k]`` the L2 distance to
    the unit-norm exact eigenfunction, both integrated with the p+3-point
    rule element by element, in blocks of ``EFUN_BLOCK`` modes.
    """

    spec: SpaceSpec
    eigenvalues: np.ndarray
    frequencies: np.ndarray
    vectors: np.ndarray
    overlaps: np.ndarray = field(repr=False)
    e_fun: np.ndarray = field(repr=False)


def spectrum_1d(spec: SpaceSpec) -> Spectrum1D:
    """Assemble and solve the eigenproblem on the space."""
    s = assemble_stiffness(spec)
    m = assemble_mass(spec)
    w, v = generalized_eigen_sym(s, m)
    freqs = np.sqrt(np.clip(w, 0.0, None))
    overlaps, e_fun = _eigenfunction_errors(spec, v)
    flip = np.where(overlaps < 0.0, -1.0, 1.0)
    v *= flip[None, :]
    return Spectrum1D(spec=spec, eigenvalues=w, frequencies=freqs,
                      vectors=v, overlaps=overlaps * flip, e_fun=e_fun)


def _eigenfunction_errors(spec: SpaceSpec, v):
    """L2 overlaps (before sign alignment) and sign-aligned L2 errors of
    the modes ``v[:, k]`` against the exact eigenfunctions l = k+1."""
    n = spec.n
    xs, ws = quadrature_grid(spec.breaks, spec.p + 3)
    b0 = basis_samples(spec.knots, xs, 0)[0]
    omega = exact_frequencies(spec.bc, n)
    wave = np.cos if spec.bc == BoundaryType.NEUMANN else np.sin
    overlaps = np.empty(n)
    e_fun = np.empty(n)
    for lo in range(0, n, EFUN_BLOCK):
        blk = slice(lo, min(lo + EFUN_BLOCK, n))
        uh = b0 @ (spec.extraction.T @ v[:, blk])
        exact = np.outer(xs, omega[blk])
        wave(exact, out=exact)
        exact *= np.sqrt(2.0)
        if spec.bc == BoundaryType.NEUMANN and lo == 0:
            exact[:, 0] = 1.0
        ov = np.einsum("qk,qk->k", exact, uh * ws[:, None])
        uh *= np.where(ov < 0.0, -1.0, 1.0)[None, :]
        diff = np.subtract(exact, uh, out=exact)
        overlaps[blk] = ov
        e_fun[blk] = np.sqrt(np.einsum("qk,qk->k", diff, diff * ws[:, None]))
    return overlaps, e_fun


def eigval_upper_bound(l, n, p, bc) -> float:
    """Relative a-priori bound on the frequency error of mode l.

    Valid for the optimal subspace of dimension n: the discrete frequency
    never exceeds omega_l / (1 - (omega_l/omega_{n+1})^{p+1}).  Returns
    that guarantee as a bound on (omega_h - omega)/omega.
    """
    if not 1 <= l <= n:
        raise ConfigError("mode index out of range")
    freqs = exact_frequencies(bc, n + 1)
    return _upper_bound(freqs[l - 1], freqs[n], p)


def _upper_bound(wl, wtop, p):
    return 0.0 if wl == 0.0 else 1.0 / (1.0 - (wl / wtop) ** (p + 1)) - 1.0


def _upper_bounds(spec: SpaceSpec):
    """:func:`eigval_upper_bound` for modes 1..n of the space, with the
    exact frequencies taken once."""
    freqs = exact_frequencies(spec.bc, spec.n + 1)
    return np.array([_upper_bound(wl, freqs[spec.n], spec.p)
                     for wl in freqs[:spec.n]])


def eigval_upper_bound_sharp(l, n, p, bc):
    """Sharper bound variant with explicit applicability flag.

    Returns (bound, applicable).  The refinement holds only while
    sqrt(l) * (omega_l/omega_1)^2 * (omega_l/omega_{n+1})^{2p} < 1/2; when
    that fails (or the first frequency vanishes, as for Neumann) the flag
    is False and the plain bound should be used instead.
    """
    if not 1 <= l <= n:
        raise ConfigError("mode index out of range")
    freqs = exact_frequencies(bc, n + 1)
    wl, w1, wtop = freqs[l - 1], freqs[0], freqs[n]
    if w1 == 0.0:
        return np.nan, False
    q = np.sqrt(l) * (wl / w1) ** 2 * (wl / wtop) ** (2 * p)
    if q >= 0.5:
        return np.nan, False
    return 1.0 / np.sqrt(1.0 - 2.0 * q) - 1.0, True


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
    error exceeds twice the branch maximum.  Requires n_i > 2p_i in every
    direction so the branch is long enough to be meaningful.
    """
    if any(s.n <= 2 * s.p for s in report.specs):
        raise ConfigError("need n > 2p in every direction to separate a "
                          "regular branch")
    usable = ~report.zero_mode
    regular = usable & np.all([l <= s.n - s.p for s, l
                               in zip(report.specs, report.ls)], axis=0)
    threshold = 2.0 * np.max(report.e_freq[regular])
    return int(np.sum(report.e_freq[usable] > threshold))


@dataclass
class Spectrum2D:
    """Tensor-product spectrum: all n1*n2 pairs of univariate modes.

    Discrete squared frequencies are exactly the sums of the univariate
    eigenvalues (fast diagonalization); rows are sorted by ascending exact
    frequency, ties by (l1, l2).
    """

    sp1: Spectrum1D
    sp2: Spectrum1D
    l1: np.ndarray
    l2: np.ndarray
    omega_exact: np.ndarray
    omega_sq_h: np.ndarray
    omega_h: np.ndarray


def spectrum_2d(spec1: SpaceSpec, spec2: SpaceSpec) -> Spectrum2D:
    """Solve both univariate problems and collate the tensor modes.

    Passing the same space object twice solves it once.
    """
    sp1 = spectrum_1d(spec1)
    sp2 = sp1 if spec2 is spec1 else spectrum_1d(spec2)
    return collate_2d(sp1, sp2)


def collate_2d(sp1: Spectrum1D, sp2: Spectrum1D) -> Spectrum2D:
    ex1 = exact_frequencies(sp1.spec.bc, sp1.spec.n)
    ex2 = exact_frequencies(sp2.spec.bc, sp2.spec.n)
    l1, l2 = np.meshgrid(np.arange(1, sp1.spec.n + 1),
                         np.arange(1, sp2.spec.n + 1), indexing="ij")
    l1 = l1.ravel()
    l2 = l2.ravel()
    om_exact = np.sqrt(ex1[l1 - 1] ** 2 + ex2[l2 - 1] ** 2)
    om_sq = sp1.eigenvalues[l1 - 1] + sp2.eigenvalues[l2 - 1]
    om_h = np.sqrt(np.clip(om_sq, 0.0, None))
    order = np.lexsort((l2, l1, om_exact))
    return Spectrum2D(sp1=sp1, sp2=sp2, l1=l1[order], l2=l2[order],
                      omega_exact=om_exact[order], omega_sq_h=om_sq[order],
                      omega_h=om_h[order])


def mode_errors_2d(sp: Spectrum2D) -> ModeErrorReport:
    """Tensor-mode errors from the univariate ingredients.

    The eigenfunction error uses the exact identity
    e12^2 = e1^2 + e2^2 - e1^2 e2^2 / 2 for unit-norm product modes, so the
    accurately integrated univariate errors carry over without forming any
    2D quadrature grid.
    """
    e1 = sp.sp1.e_fun[sp.l1 - 1]
    e2 = sp.sp2.e_fun[sp.l2 - 1]
    e = np.sqrt(np.clip(e1 ** 2 + e2 ** 2 - 0.5 * e1 ** 2 * e2 ** 2,
                        0.0, None))
    return _report((sp.sp1.spec, sp.sp2.spec), (sp.l1, sp.l2),
                   sp.omega_exact, sp.omega_h, e, _bound_2d(sp))


def _bound_2d(sp: Spectrum2D):
    s1, s2 = sp.sp1.spec, sp.sp2.spec
    if s1.kind != SpaceKind.OPTIMAL or s2.kind != SpaceKind.OPTIMAL:
        return np.full(sp.l1.size, np.nan)
    b1, b2 = _upper_bounds(s1), _upper_bounds(s2)
    w1 = exact_frequencies(s1.bc, s1.n)
    w2 = exact_frequencies(s2.bc, s2.n)
    num = ((1.0 + b1[sp.l1 - 1]) * w1[sp.l1 - 1]) ** 2 \
        + ((1.0 + b2[sp.l2 - 1]) * w2[sp.l2 - 1]) ** 2
    den = w1[sp.l1 - 1] ** 2 + w2[sp.l2 - 1] ** 2
    out = np.full(sp.l1.size, np.nan)
    ok = den > 0.0
    out[ok] = np.sqrt(num[ok] / den[ok]) - 1.0
    return out

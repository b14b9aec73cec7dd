"""Closed-form eigenfunctions, the a-priori bounds, mode by mode, the
certified wave eigenvectors and an extended-precision symbol, for tests.

The library builds its exact waves inline in the error pass, takes the
plain bound for all modes of a space at once, keeps certified waves as
amplitudes only and evaluates the symbol in floats; these are the
per-mode references, the eigenvectors and the 40-digit frequencies the
tests compare against.
"""

from fractions import Fraction

import numpy as np

from eigenspline import BoundaryType, ConfigError, exact_frequencies
from eigenspline.spaces import _layout_params, _wave_centres
from eigenspline.splines import _layout


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


def wave_vectors(spec, nu):
    """The certified wave eigenvectors of an optimal or reduced space,
    rebuilt from their amplitudes ``nu``: column l is nu_l wave(omega_l
    c_i) at the fold's row centres c_i (cos for Neumann, sin otherwise),
    the values the wave certificate checks."""
    wave = np.cos if spec.bc == BoundaryType.NEUMANN else np.sin
    return wave(np.outer(_wave_centres(spec),
                         exact_frequencies(spec.bc, spec.n))) * nu


def eigval_upper_bound(l, n, p, bc):
    """Relative a-priori bound on the frequency error of mode l.

    Valid for the optimal subspace of dimension n: the discrete frequency
    never exceeds omega_l / (1 - (omega_l/omega_{n+1})^{p+1}).  Returns
    that guarantee as a bound on (omega_h - omega)/omega, in the scalar
    arithmetic that the library's bound column must match bit for bit.
    """
    if not 1 <= l <= n:
        raise ConfigError("mode index out of range")
    freqs = exact_frequencies(bc, n + 1)
    wl, wtop = freqs[l - 1], freqs[n]
    return 0.0 if wl == 0.0 else 1.0 / (1.0 - (wl / wtop) ** (p + 1)) - 1.0


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


def cardinal_integer_values(q):
    """[N_q(t) for t = 0, ..., q + 1], the degree-q cardinal B-spline at
    the integers, exactly, by the degree-raising recurrence
    N_k(t) = (t N_{k-1}(t) + (k + 1 - t) N_{k-1}(t - 1)) / k."""
    vals = [Fraction(1)] + [Fraction(0)] * (q + 1)
    for k in range(1, q + 1):
        vals = [(t * vals[t] + (k + 1 - t) * (vals[t - 1] if t else 0)) / k
                for t in range(q + 2)]
    return vals


def symbol_frequencies_mp(spec, dps=40):
    """The discrete frequencies of an optimal or reduced space from the
    cardinal-spline symbol, as mpmath numbers at ``dps`` digits: exact
    rational N_{2p+1} and N''_{2p+1} at the integers, and theta_l =
    omega_l h with omega_l and h = 2/den exact.  Mode 1 of a Neumann space
    is exactly 0."""
    import mpmath

    p = spec.p
    q = 2 * p + 1
    den, _, _ = _layout_params(spec.kind, p, spec.n, spec.bc)
    mass = cardinal_integer_values(q)
    low = cardinal_integer_values(q - 2) + [Fraction(0)] * 2
    # N_q'' (t) = N_{q-2}(t) - 2 N_{q-2}(t - 1) + N_{q-2}(t - 2)
    stiff = [low[t] - 2 * low[t - 1] + low[t - 2] for t in range(2, q + 2)]
    stiff = [Fraction(0)] * 2 + stiff
    shift = {BoundaryType.DIRICHLET: 0, BoundaryType.NEUMANN: -1,
             BoundaryType.MIXED: Fraction(-1, 2)}[BoundaryType(spec.bc)]
    out = []
    with mpmath.workdps(dps):
        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        h = mpmath.mpf(2) / den
        for l in range(1, spec.n + 1):
            theta = mpmath.pi * mp(l + shift) * h
            st = 4 * mpmath.fsum(mp(stiff[p + 1 + k])
                                 * mpmath.sin(k * theta / 2) ** 2
                                 for k in range(1, p + 1))
            ma = mp(mass[p + 1]) + 2 * mpmath.fsum(
                mp(mass[p + 1 + k]) * mpmath.cos(k * theta)
                for k in range(1, p + 1))
            out.append(mpmath.sqrt(st / ma) / h)
    return out


def exact_knots(knots):
    """The knots of a uniform layout (``splines._layout``) as Fractions:
    (2k - sigma)/den, k = -p..n_el+p, clipped to [0, 1] when the layout
    is."""
    den, sigma, clip = _layout(knots)
    out = [Fraction(2 * k - sigma, den)
           for k in range(-knots.p, knots.n_el + knots.p + 1)]
    return [min(max(t, Fraction(0)), Fraction(1)) for t in out] if clip \
        else out


def exact_gram_band(t, p, n_el, d):
    """The d-th derivative B-spline Gram band of the knots ``t`` (Fractions,
    ``KnotVector.values`` order) over [0, 1], exactly: ``band[k][j]`` is
    the integral of N_{j+k}^(d) N_j^(d) over the elements, each B-spline
    piece a polynomial with Fraction coefficients from the Cox-de Boor
    recursion and each product integrated in closed form."""

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def add(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)]

    nb = n_el + p
    band = [[Fraction(0)] * nb for _ in range(p + 1)]
    for e in range(n_el):
        lo, hi = max(t[e + p], Fraction(0)), min(t[e + p + 1], Fraction(1))
        # pieces[j] on element e of the B-splines on t[e+p-k..], degree k
        pieces = [[Fraction(1)]]
        for k in range(1, p + 1):
            nxt = []
            for i in range(k + 1):
                j = e + p - k + i
                piece = [Fraction(0)]
                if i > 0:
                    left = pieces[i - 1]
                    den = t[j + k] - t[j]
                    piece = add(piece, mul(left, [-t[j] / den, 1 / den]))
                if i < k:
                    right = pieces[i]
                    den = t[j + k + 1] - t[j + 1]
                    piece = add(piece, mul(right, [t[j + k + 1] / den,
                                                   -1 / den]))
                nxt.append(piece)
            pieces = nxt
        for _ in range(d):
            pieces = [[c * i for i, c in enumerate(q)][1:] or [Fraction(0)]
                      for q in pieces]
        for a in range(p + 1):
            for b in range(a, p + 1):
                prod = mul(pieces[a], pieces[b])
                band[b - a][e + a] += sum(
                    c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
                    for i, c in enumerate(prod))
    return band


def full_pencil_eigenvalues_mp(spec, dps=40):
    """Eigenvalues, ascending, of a full space's pencil assembled exactly
    (:func:`exact_gram_band` on its rational knots, then the slice of the
    B-splines it keeps), as mpmath numbers at ``dps`` digits: those of
    L^{-1} S L^{-T}, L the Cholesky factor of M, from ``mpmath.eigsy``."""
    import mpmath

    p, n = spec.p, spec.n
    knots = exact_knots(spec.knots)
    lo = int(np.argmax(spec.rows == 0))
    with mpmath.workdps(dps):
        pencil = []
        for d in (1, 0):
            band = exact_gram_band(knots, p, spec.n_el, d)
            a = mpmath.zeros(n, n)
            for k in range(p + 1):
                for j in range(n - k):
                    x = band[k][lo + j]
                    a[j + k, j] = a[j, j + k] = \
                        mpmath.mpf(x.numerator) / x.denominator
            pencil.append(a)
        s, m = pencil
        inv = mpmath.inverse(mpmath.cholesky(m))
        w = mpmath.eigsy(inv * s * inv.T, eigvals_only=True)
        return sorted(w[i] for i in range(n))

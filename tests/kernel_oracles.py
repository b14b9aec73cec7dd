"""Loop references for the band layout, the banded product and the
eigenfunction-error pass.

Test-only.  ``band_matvec`` is the diagonal loop that
``SymBandMatrix.matvec`` and the products with ``SymBandMatrix.to_sparse``
must match bitwise and that the wave certificate's residuals are checked
against; ``band_to_dense``, ``congruence_band`` and ``trace_fit_band`` are
the hand-written band conversions that ``SymBandMatrix.to_dense``,
``assembly._congruence`` on full spaces and ``poisson._trace_fit`` must
match bitwise;
``pointwise_gram_band`` is the Gram band evaluated at every quadrature
point, which ``bspline_gram`` must match bitwise on knots without element
classes and to round-off on the uniform layouts;
``exact_congruence_gap`` measures a fold space's congruence band against
the exact sum of its float Gram terms; ``eigenfunction_errors`` is
the error pass that weights every block by the quadrature weights
explicitly, takes each exact wave at the sample points themselves with its
angle reduced exactly, and sums each mode's column pairwise, which
``spectrum._eigenfunction_errors``, and for certified waves
``spectrum._wave_errors``, must match to round-off.
"""

import numpy as np
import scipy.sparse

from eigenspline import (BoundaryType, SymBandMatrix, basis_samples,
                         bspline_eval_batch, bspline_gram, exact_frequencies)
from eigenspline.assembly import quadrature_grid
from eigenspline.spectrum import EFUN_BLOCK


def band_matvec(a, x):
    """A @ x for a SymBandMatrix ``a``, one pass per diagonal: each entry
    sums the diagonal term, then the lower and the upper neighbour at
    distance 1, 2, ..., bandwidth."""
    x = np.asarray(x, dtype=float)
    band = a.band if x.ndim == 1 else a.band[:, :, None]
    y = band[0] * x
    for d in range(1, a.bandwidth + 1):
        b = band[d, :a.n - d]
        y[d:] += b * x[:-d]
        y[:-d] += b * x[d:]
    return y


def band_to_dense(a):
    """The dense matrix of a SymBandMatrix, one diagonal at a time."""
    out = np.zeros((a.n, a.n))
    for d in range(a.bandwidth + 1):
        idx = np.arange(a.n - d)
        out[idx + d, idx] = a.band[d, :a.n - d]
        if d:
            out[idx, idx + d] = a.band[d, :a.n - d]
    return out


def pointwise_gram_band(knots, breaks, d):
    """The B-spline Gram band of :func:`bspline_gram` with the B-splines
    evaluated at every point of the p+1-point grid, and each element's
    block added into the band one diagonal entry at a time, elements in
    ascending order."""
    p = knots.p
    m = p + 1
    n_el = len(breaks) - 1
    xs, ws = quadrature_grid(breaks, m)
    spans, vals = bspline_eval_batch(knots, d, xs)
    lo = spans[::m]
    v = vals[:, d, :].reshape(n_el, m, p + 1)
    blocks = np.einsum("eqa,eqb,eq->eab", v, v, ws.reshape(n_el, m))
    band = np.zeros((p + 1, knots.num_basis))
    for k in range(p + 1):
        diag = np.diagonal(blocks, offset=-k, axis1=1, axis2=2)
        for a in range(p - k, -1, -1):
            band[k, lo + a] += diag[:, a]
    return band


def congruence_band(spec, d):
    """(bandwidth, band) of E G E^T for the d-th derivative Gram G: G as a
    sparse matrix of diagonals -p..p, the symmetrised product scattered
    from COO triplets into the packed lower band."""
    band = bspline_gram(spec.knots, spec.breaks, d)
    p, nb = band.shape[0] - 1, band.shape[1]
    offsets = range(-p, p + 1)
    g = scipy.sparse.diags_array([band[abs(k), :nb - abs(k)] for k in offsets],
                                 offsets=offsets, shape=(nb, nb))
    a = spec.extraction @ g @ spec.extraction.T
    a = (0.5 * (a + a.T)).tocoo()
    keep = (a.row >= a.col) & (a.data != 0)
    offs = a.row[keep] - a.col[keep]
    bw = int(offs.max()) if offs.size else 0
    out = np.zeros((bw + 1, spec.n))
    out[offs, a.col[keep]] = a.data[keep]
    return bw, out


# Every finite float is an integer multiple of 2^-1074, so in units of
# 2^-EXACT_SHIFT (and below 2^1024) it is an integer, and integer sums of
# such terms are exact.
EXACT_SHIFT = 1100


def _exact_int(x):
    num, den = float(x).as_integer_ratio()
    return num * ((1 << EXACT_SHIFT) // den)


def exact_congruence_gap(spec, gram, band):
    """Largest |band - E G E^T| over the lower band of a fold space, with
    E G E^T summed exactly from its float terms: entry (r, c), r >= c, is
    the sum over B-splines a, b on rows r and c of s_a s_b G_ab, G_ab the
    float entry of the Gram band ``gram`` (packed lower, bandwidth p).
    ``band`` is a packed lower band of any bandwidth; its missing
    diagonals count as zero."""
    e = spec.extraction.tocsc()
    p, nb = gram.shape[0] - 1, gram.shape[1]
    row = {j: (e.indices[e.indptr[j]], e.data[e.indptr[j]])
           for j in range(nb) if e.indptr[j + 1] > e.indptr[j]}
    exact = {}
    for a, (ra, sa) in row.items():
        for b in range(max(0, a - p), min(nb, a + p + 1)):
            if b not in row or row[b][0] > ra:
                continue
            rb, sb = row[b]
            g = gram[abs(a - b), min(a, b)] * sa * sb
            exact[ra - rb, rb] = exact.get((ra - rb, rb), 0) + _exact_int(g)
    for d in range(band.shape[0]):
        for j in range(spec.n - d):
            exact.setdefault((d, j), 0)
    worst = 0
    for (d, j), value in exact.items():
        got = band[d, j] if d < band.shape[0] else 0.0
        worst = max(worst, abs(_exact_int(got) - value))
    return worst / (1 << EXACT_SHIFT)


def trace_fit_band(b):
    """The normal-equation matrix B^T B of the sampled B-splines ``b``
    (CSR, p + 1 entries per row), banded diagonal by diagonal."""
    w = b.indptr[1]
    g = b.T @ b
    return SymBandMatrix(n=b.shape[1], bandwidth=w - 1, band=np.stack(
        [np.pad(g.diagonal(-k), (0, k)) for k in range(w)]))


def eigenfunction_errors(spec, v):
    """L2 overlaps (before sign alignment) and sign-aligned L2 errors of
    the modes ``v[:, k]`` against the exact eigenfunctions l = k+1."""
    n, m = spec.n, spec.p + 3
    xs, ws = quadrature_grid(spec.breaks, m)
    b0 = basis_samples(spec.knots, xs, 0)[0]
    omega = exact_frequencies(spec.bc, n)
    wave = np.cos if spec.bc == BoundaryType.NEUMANN else np.sin
    # omega x = (pi / 2) k x with k an integer; split each point exactly
    # as x = (top + rest) / 2^20, top an integer, so that k x mod 4 is the
    # integer index k top mod 2^22 over 2^20 plus the small k rest / 2^20:
    # the angle is reduced exactly and rounded once, at the very points
    # where the modes are sampled.
    k = np.rint(2.0 * omega / np.pi).astype(np.int64)
    top = np.floor(xs * 2.0 ** 20)
    rest = xs - top / 2.0 ** 20
    top = top.astype(np.int64)
    overlaps = np.empty(n)
    e_fun = np.empty(n)
    for lo in range(0, n, EFUN_BLOCK):
        blk = slice(lo, min(lo + EFUN_BLOCK, n))
        quarters = (np.outer(top, k[blk]) % 2 ** 22) / 2.0 ** 20 \
            + np.outer(rest, k[blk])
        ex = np.sqrt(2.0) * wave(0.5 * np.pi * quarters)
        if spec.bc == BoundaryType.NEUMANN and lo == 0:
            ex[:, 0] = 1.0
        uh = b0 @ (spec.extraction.T @ v[:, blk])
        ov = _column_sums(ex * uh * ws[:, None])
        uh *= np.where(ov < 0.0, -1.0, 1.0)[None, :]
        diff = np.subtract(ex, uh, out=ex)
        overlaps[blk] = ov
        e_fun[blk] = np.sqrt(_column_sums(diff * diff * ws[:, None]))
    return overlaps, e_fun


def _column_sums(a):
    # pairwise sums down the columns: numpy sums a contiguous axis pairwise
    return np.ascontiguousarray(a.T).sum(axis=1)

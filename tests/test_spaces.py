"""Tests for space construction, extraction matrices and constraints."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from eigenspline import (
    ConfigError,
    assemble_mass,
    boundary_residuals,
    exact_frequencies,
    make_space,
    reduced_basis_matrix,
)
from eigenspline import assembly
from eigenspline.spaces import _layout_params
from exact_modes import wave_centres

# explicit extraction matrices for small spaces, rows = basis functions,
# columns = scaled cardinal B-splines on the matching knot sequence
E_4x8 = np.array([
    [-1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, -1],
], float)

E_2x12 = np.array([
    [0, 0, 0, -1, 0, 1, 0, 0, 0, -1, 0, 1],
    [1, 0, -1, 0, 0, 0, 1, 0, -1, 0, 0, 0],
], float)

E_RED_6x8 = np.array([
    [-1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, -1],
], float)

# the Neumann and mixed folds: B-splines reflected evenly at a Neumann end
# and oddly at a Dirichlet end, a centre on a Dirichlet end dropped
E_NEU_4x8 = np.array([
    [0, 1, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 1, 0],
], float)

E_MIX_3x7 = np.array([
    [-1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 0, 1, 1, 0],
], float)

E_RED_2x10 = np.array([
    [1, 0, 0, -1, 1, 0, 0, -1, 1, 0],
    [0, 1, -1, 0, 0, 1, -1, 0, 0, 1],
], float)


def _breaks(p, n, bc):
    return make_space("optimal", p, n, bc).breaks


class TestBreaks:
    def test_odd_degree_uniform(self):
        assert_allclose(_breaks(3, 4, 0), np.linspace(0, 1, 6))

    def test_even_degree_half_boundary_elements(self):
        b = _breaks(2, 6, 0)
        widths = np.diff(b)
        assert_allclose(widths[0], widths[1] / 2)
        assert_allclose(widths[-1], widths[-2] / 2)
        assert_allclose(widths[1:-1], widths[1])

    @pytest.mark.parametrize("p,n,bc", [(3, 10, 0), (4, 9, 1), (5, 8, 2)])
    def test_breaks_cover_unit_interval(self, p, n, bc):
        b = _breaks(p, n, bc)
        assert b[0] == 0.0 and b[-1] == 1.0
        assert np.all(np.diff(b) > 0)

    def test_mixed_breaks_asymmetric(self):
        b = _breaks(2, 6, 2)
        widths = np.diff(b)
        assert not np.allclose(widths[0], widths[-1])

    @pytest.mark.parametrize("p,n,bc", [(3, 9, 0), (2, 9, 1), (4, 9, 2)])
    def test_every_knot_is_a_break(self, p, n, bc):
        # all knots inside (0, 1) must show up as break points, otherwise
        # elementwise quadrature would straddle a smoothness drop
        sp = make_space("optimal", p, n, bc)
        kv = sp.knots.values
        inside = kv[(kv > 1e-12) & (kv < 1 - 1e-12)]
        for k in inside:
            assert np.any(np.isclose(sp.breaks, k))


def _separate_layout(kind, p, n, bc):
    # knots, breaks and h as three separate layout formulas once built them
    if kind == "full":
        n_el = n - p + {0: 2, 1: 0, 2: 1}[bc]
        idx = np.clip(np.arange(-p, n_el + p + 1), 0, n_el)
        return idx / n_el, np.arange(n_el + 1) / n_el, 1.0 / n_el
    if kind == "reduced":
        return np.arange(-p, n + p + 1) / n, np.arange(n + 1) / n, 1.0 / n
    even = int(p % 2 == 0)
    den, sigma, n_el = {0: (2 * (n + 1), even, n + 1 + even),
                        1: (2 * n, 1 - even, n + 1 - even),
                        2: (2 * n + 1, even, n + 1)}[bc]
    knots = (2 * np.arange(-p, n_el + p + 1) - sigma) / den
    breaks = np.concatenate(([0.0], knots[p + 1:p + n_el], [1.0]))
    return knots, breaks, 2.0 / den


class TestLayout:
    def test_bit_identical_to_separate_formulas(self):
        checked = 0
        for kind in ("full", "optimal", "reduced"):
            for bc in (0, 1, 2):
                for p in range(1, 7):
                    for n in (2, 3, 4, 7, 12, 25):
                        try:
                            sp = make_space(kind, p, n, bc)
                        except ConfigError:
                            continue
                        knots, breaks, h = _separate_layout(kind, p, n, bc)
                        # bytes compare bitwise, signs of zero included
                        assert sp.knots.values.tobytes() == knots.tobytes()
                        assert sp.breaks.tobytes() == breaks.tobytes()
                        assert sp.h == h
                        checked += 1
        assert checked >= 150


class TestExtractionExamples:
    @pytest.mark.parametrize("kind,p,n,expected", [
        ("optimal", 3, 4, E_4x8),
        ("optimal", 9, 2, E_2x12),
        ("optimal", 2, 4, E_4x8),
        ("optimal", 8, 2, E_2x12),
        ("reduced", 2, 6, E_RED_6x8),
        ("reduced", 8, 2, E_RED_2x10),
    ])
    def test_bit_exact(self, kind, p, n, expected):
        e = make_space(kind, p, n, 0).extraction.toarray()
        assert e.shape == expected.shape
        assert np.array_equal(e, expected)
        # +0.0 entries only, no negative zeros
        assert not np.any((e == 0.0) & np.signbit(e))

    @pytest.mark.parametrize("p,n,bc,expected", [
        (3, 4, 1, E_NEU_4x8), (3, 3, 2, E_MIX_3x7)])
    def test_fold_examples(self, p, n, bc, expected):
        sp = make_space("optimal", p, n, bc)
        assert np.array_equal(sp.extraction.toarray(), expected)
        assert boundary_residuals(sp) <= 1e-14

    def test_parity_coincidence(self):
        # even degree p and odd degree p + 1 share the Dirichlet extraction
        # matrix at equal dimension, only the knot grids differ
        even = make_space("optimal", 4, 7, 0)
        odd = make_space("optimal", 5, 7, 0)
        assert np.array_equal(even.extraction.toarray(),
                              odd.extraction.toarray())
        assert even.n_el == odd.n_el + 1


class TestDimensions:
    @pytest.mark.parametrize("p,n,bc,n_el", [
        (3, 4, 0, 5), (2, 4, 0, 6), (9, 2, 0, 3), (8, 2, 0, 4),
        (3, 5, 1, 6), (4, 5, 1, 5), (2, 5, 2, 6), (5, 5, 2, 6),
    ])
    def test_optimal_element_counts(self, p, n, bc, n_el):
        sp = make_space("optimal", p, n, bc)
        assert sp.n_el == n_el
        assert sp.extraction.shape == (n, n_el + p)

    @pytest.mark.parametrize("bc,drop", [(0, 2), (1, 0), (2, 1)])
    def test_full_dimension(self, bc, drop):
        sp = make_space("full", 3, 12, bc)
        assert sp.n_el == 12 - 3 + drop
        assert sp.extraction.shape[0] == 12

    def test_reduced_dimension_equals_elements(self):
        sp = make_space("reduced", 4, 9, 0)
        assert sp.n_el == 9
        assert sp.knots.num_basis == 13

    def test_h_matches_widest_element(self):
        sp = make_space("optimal", 3, 10, 0)
        assert_allclose(sp.h, np.diff(sp.breaks).max())

    def test_specs_compare_and_hash_by_identity(self):
        # comparing or hashing a spec must not touch its array fields
        a = make_space("optimal", 3, 8, 0)
        b = make_space("optimal", 3, 8, 0)
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a)
        assert a in {a} and b not in {a} and len({a, b}) == 2


def _smallest_space(kind, p, bc):
    """The space of the smallest dimension make_space accepts, or None
    when no dimension is legal (reduced spaces of odd p or not Dirichlet)."""
    for n in range(1, p + 4):
        try:
            return make_space(kind, p, n, bc)
        except ConfigError:
            pass
    return None


class TestSparseExtraction:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 12, 29])
    @pytest.mark.parametrize("bc", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["full", "optimal", "reduced"])
    def test_smallest_spaces(self, kind, bc, p):
        # the smallest legal n folds B-splines back across both ends
        # (n_el <= p + 1), several times over for large p, and reaches
        # the two-element reduced space
        sp = _smallest_space(kind, p, bc)
        if sp is None:
            assert kind == "reduced" and (p % 2 or bc)
            return
        e = sp.extraction
        assert isinstance(e, scipy.sparse.csr_array)
        assert e.shape == (sp.n, sp.knots.num_basis)
        assert e.has_canonical_format
        assert np.linalg.matrix_rank(e.toarray()) == sp.n
        if kind != "full":
            assert boundary_residuals(sp) <= 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 12])
    @pytest.mark.parametrize("kind,bc", [
        ("optimal", 0), ("optimal", 1), ("optimal", 2), ("reduced", 0)])
    def test_waves_fold_to_bspline_centres(self, kind, bc, p):
        # E^T of a wave sampled at the row centres is the wave sampled at
        # every B-spline centre, those outside [0, 1] included; the
        # closed-form error pass rests on this
        for n in (1, 2, 3, 17):
            try:
                sp = make_space(kind, p, n, bc)
            except ConfigError:
                continue
            omega = exact_frequencies(bc, n)
            wave = np.cos if bc == 1 else np.sin
            t = 0.5 * (sp.knots.values[:-p - 1] + sp.knots.values[p + 1:])
            assert_allclose(sp.extraction.T @ wave(np.outer(
                wave_centres(sp), omega)), wave(np.outer(t, omega)),
                rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind,p,bc", [
        ("optimal", 5, 0), ("optimal", 5, 1), ("full", 5, 0),
        ("reduced", 4, 0)])
    def test_built_without_dense_matrix(self, kind, p, bc):
        # the dense 2000 x (n_el + p) extraction alone would take 32 MB
        make_space(kind, p, 2000, bc)
        tracemalloc.start()
        try:
            make_space(kind, p, 2000, bc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def _reflected_extraction(sp):
    """Dense extraction of a space, built by reflecting each B-spline's
    centre one end at a time.  Full spaces keep B-splines in order and drop
    the first at a Dirichlet or mixed left end and the last at a Dirichlet
    right end.  On a fold, B-spline j's centre (the midpoint of its knots,
    in units of 1/den) is mirrored at x = 0 and x = 1 until it lies in
    [0, den], its sign flipping at each odd (Dirichlet) end crossed; a
    centre that lands on an odd end is dropped, and the rows are the
    distinct landing points in ascending order."""
    p, nb = sp.p, sp.knots.num_basis
    if sp.kind == "full":
        lo = 0 if sp.bc == 1 else 1
        hi = nb - 1 if sp.bc == 0 else nb
        return np.eye(nb)[lo:hi]
    den = _layout_params(sp.kind, p, sp.n, sp.bc)[0]
    odd0, odd1 = sp.bc != 1, sp.bc == 0
    t = sp.knots.values
    landed = []
    for j in range(nb):
        z, sign = int(round(0.5 * (t[j] + t[j + p + 1]) * den)), 1.0
        while not 0 <= z <= den:
            if z < 0:
                z, sign = -z, -sign if odd0 else sign
            else:
                z, sign = 2 * den - z, -sign if odd1 else sign
        if (z == 0 and odd0) or (z == den and odd1):
            sign = 0.0
        landed.append((z, sign))
    rows = sorted({z for z, sign in landed if sign})
    e = np.zeros((len(rows), nb))
    for j, (z, sign) in enumerate(landed):
        if sign:
            e[rows.index(z), j] = sign
    return e


class TestSignedAssignment:
    """A space stores its extraction as one row and one sign per B-spline;
    the sparse extraction is built from them only when asked for."""

    def test_reproduces_the_reflected_extraction(self):
        checked = 0
        for kind in ("full", "optimal", "reduced"):
            for bc in (0, 1, 2):
                for p in range(1, 17):
                    sizes = {2 * p + 3, 40, 97}
                    small = _smallest_space(kind, p, bc)
                    for sp in [small] + [_space_or_none(kind, p, n, bc)
                                         for n in sorted(sizes)]:
                        if sp is None:
                            continue
                        ref = _reflected_extraction(sp)
                        nb = sp.knots.num_basis
                        assert sp.rows.shape == sp.signs.shape == (nb,)
                        kept = sp.rows >= 0
                        assert np.array_equal(sp.signs != 0.0, kept)
                        e = np.zeros((sp.n, nb))
                        e[sp.rows[kept], np.flatnonzero(kept)] = \
                            sp.signs[kept]
                        assert e.tobytes() == ref.tobytes()
                        assert sp.extraction.toarray().tobytes() \
                            == ref.tobytes()
                        checked += 1
        assert checked == 416

    def test_builds_no_sparse_matrix(self, monkeypatch):
        # make_space and the pencil construct no scipy.sparse object; the
        # extraction view does, so it is the control
        made = []

        def forbidden(self, *args, **kwargs):
            made.append(type(self).__name__)
            raise AssertionError("sparse matrix constructed")

        monkeypatch.setattr(scipy.sparse._base._spbase, "__init__",
                            forbidden)
        for kind, p, n, bc in (("full", 3, 20, 0), ("full", 4, 21, 1),
                               ("optimal", 3, 20, 0), ("optimal", 4, 20, 1),
                               ("optimal", 5, 3, 2), ("reduced", 4, 16, 0),
                               ("reduced", 2, 2, 0)):
            sp = make_space(kind, p, n, bc)
            assembly._pencil(sp)
        assert made == []
        with pytest.raises(AssertionError):
            sp.extraction
        assert made == ["csr_array"]


def _space_or_none(kind, p, n, bc):
    try:
        return make_space(kind, p, n, bc)
    except ConfigError:
        return None


class TestRejections:
    def test_reduced_odd_degree(self):
        with pytest.raises(ConfigError):
            make_space("reduced", 3, 8, 0)

    @pytest.mark.parametrize("bc", [1, 2])
    def test_reduced_non_dirichlet(self, bc):
        with pytest.raises(ConfigError):
            make_space("reduced", 2, 8, bc)

    def test_too_small(self):
        with pytest.raises(ConfigError):
            make_space("optimal", 9, 1, 0)
        with pytest.raises(ConfigError):
            make_space("full", 5, 5, 0)
        with pytest.raises(ConfigError):
            make_space("reduced", 2, 1, 0)

    def test_bad_degree(self):
        with pytest.raises(ConfigError):
            make_space("optimal", 0, 8, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_space("fanciest", 2, 8, 0)


class TestBasisProperties:
    @pytest.mark.parametrize("kind,p,n,bc", [
        ("optimal", 2, 8, 0), ("optimal", 3, 8, 0), ("optimal", 5, 7, 0),
        ("optimal", 3, 8, 1), ("optimal", 4, 8, 1),
        ("optimal", 3, 8, 2), ("optimal", 6, 8, 2),
        ("reduced", 2, 8, 0), ("reduced", 6, 8, 0),
    ])
    def test_boundary_residuals_small(self, kind, p, n, bc):
        sp = make_space(kind, p, n, bc)
        assert boundary_residuals(sp) <= 1e-8

    def test_full_space_has_no_constraint_set(self):
        with pytest.raises(ConfigError):
            boundary_residuals(make_space("full", 3, 10, 0))

    @pytest.mark.parametrize("bc", [0, 1, 2])
    def test_extraction_full_rank(self, bc):
        sp = make_space("optimal", 4, 9, bc)
        s = np.linalg.svd(sp.extraction.toarray(), compute_uv=False)
        assert s[-1] > 1e-10

    def test_neumann_space_contains_constants(self):
        # the first Neumann mode is constant, so the space must reproduce
        # constants exactly
        sp = make_space("optimal", 3, 9, 1)
        xs = np.linspace(0, 1, 57)
        basis = reduced_basis_matrix(sp, xs, r=0)[0]
        coeffs, *_ = np.linalg.lstsq(basis, np.ones(xs.size), rcond=None)
        assert_allclose(basis @ coeffs, np.ones(xs.size), atol=1e-12)

    @pytest.mark.parametrize("kind,p", [("optimal", 3), ("optimal", 4),
                                        ("reduced", 4)])
    def test_dirichlet_partition_of_unity_interior(self, kind, p):
        # away from the ends the Dirichlet basis sums to one
        sp = make_space(kind, p, 12, 0)
        xs = np.linspace(0.3, 0.7, 11)
        vals = reduced_basis_matrix(sp, xs, r=0)[0]
        assert_allclose(vals.sum(axis=1), np.ones(xs.size), rtol=1e-12)

    def test_mass_matrix_spd(self):
        sp = make_space("optimal", 5, 8, 1)
        m = assemble_mass(sp).to_dense()
        w = np.linalg.eigvalsh(m)
        assert w.min() > 0

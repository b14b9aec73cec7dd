"""Golden outputs: every CLI subcommand at small sizes against committed CSVs.

Each study runs through ``cli.main`` into a temporary directory and every
CSV it writes is compared with ``tests/golden/<study>.csv`` (plus the
``<study>_*.csv`` companions the CLI adds for degree sweeps and basis
dumps).  Columns are compared by class:

* mode indices, exact and discrete frequencies, frequency errors, bounds,
  ``n``, ``h``, sample points, derivative orders and extraction entries
  must match bitwise (as printed, 17 significant digits);
* error columns (``rel_err_eigfun``, ``err_l2``, ``err_h1``) within
  |delta| <= 1e-13, since changing the summation order of a quadrature
  moves them by round-off;
* order columns within |delta| <= 1e-6; the convergence studies are sized
  so every error they take an order from is >= 1e-8, off the round-off
  floor;
* sampled basis values (``phi_*``) within |delta| <= 1e-13 * max|column|.

To regenerate after an intended output change, run from the repo root:
``PYTHONPATH=src python tests/test_golden.py NAME...`` rewrites only the
named studies (so files that should not move cannot be rewritten by
accident); with no names it rewrites every study.
"""

import glob
import os
import sys

import numpy as np
import pytest

from eigenspline.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Study names use hyphens only, so a companion file "<study>_*.csv"
# written by the CLI can never be mistaken for another study's output.
STUDIES = {
    "spectrum-optimal-dirichlet": ["spectrum", "--space", "optimal",
                                   "--degree", "3", "--dim", "20",
                                   "--bc", "dirichlet"],
    "spectrum-optimal-neumann": ["spectrum", "--space", "optimal",
                                 "--degree", "3", "--dim", "20",
                                 "--bc", "neumann"],
    "spectrum-optimal-mixed": ["spectrum", "--space", "optimal",
                               "--degree", "4", "--dim", "20",
                               "--bc", "mixed"],
    "spectrum-full-dirichlet": ["spectrum", "--space", "full",
                                "--degree", "3", "--dim", "20",
                                "--bc", "dirichlet"],
    "spectrum-full-neumann": ["spectrum", "--space", "full",
                              "--degree", "4", "--dim", "20",
                              "--bc", "neumann"],
    "spectrum-full-mixed": ["spectrum", "--space", "full",
                            "--degree", "3", "--dim", "20",
                            "--bc", "mixed"],
    "spectrum-reduced-dirichlet": ["spectrum", "--space", "reduced",
                                   "--degree", "4", "--dim", "16"],
    "spectrum2d-optimal-dirichlet": ["spectrum2d", "--degree", "3",
                                     "--dim", "10"],
    "spectrum2d-optimal-neumann": ["spectrum2d", "--degree", "3",
                                   "--dim", "8", "--bc", "neumann"],
    "spectrum2d-full-mixed": ["spectrum2d", "--space", "full",
                              "--degree", "3", "--dim", "8", "--bc", "mixed"],
    "poisson1d-ex73-plain": ["poisson1d", "--preset", "ex73",
                             "--degree", "3", "--dim", "20"],
    "poisson1d-ex73-corrected": ["poisson1d", "--preset", "ex73",
                                 "--degree", "3", "--dim", "20",
                                 "--correct", "on"],
    "poisson2d-ex75-corrected": ["poisson2d", "--preset", "ex75",
                                 "--degree", "3", "--dim", "12",
                                 "--correct", "on"],
    "convergence-sin2pi": ["convergence", "--preset", "sin2pi",
                           "--degrees", "2,3", "--dims", "8,16,32"],
    "basis-dump-optimal-dirichlet": ["basis-dump", "--degree", "3",
                                     "--dim", "8"],
    "basis-dump-optimal-neumann": ["basis-dump", "--degree", "4",
                                   "--dim", "8", "--bc", "neumann"],
}

BITWISE = {"l", "l2", "omega_exact", "omega_h", "rel_err_freq", "bound",
           "n", "h", "order", "x"}
ERROR_COLUMNS = {"rel_err_eigfun", "err_l2", "err_h1"}
ORDER_COLUMNS = {"order_l2", "order_h1"}
ERROR_TOL = 1e-13
ORDER_TOL = 1e-6
ORDER_ERROR_FLOOR = 1e-8
BASIS_RTOL = 1e-13


def _run(name, out_dir):
    """Run one study; return {file name: text} of the CSVs it wrote."""
    out = os.path.join(out_dir, f"{name}.csv")
    assert main(STUDIES[name] + ["--out", out]) == 0
    return _read_outputs(out_dir, name)


def _read_outputs(directory, name):
    paths = glob.glob(os.path.join(directory, f"{name}.csv")) \
        + glob.glob(os.path.join(directory, f"{name}_*.csv"))
    texts = {}
    for path in sorted(paths):
        with open(path) as fh:
            texts[os.path.basename(path)] = fh.read()
    return texts


def _table(text):
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _num(cell):
    return None if cell == "" else float(cell)


def _column_tolerance(col, golden_values):
    """Allowed |delta| for a column, or None for a bitwise column."""
    if col in BITWISE or col.startswith("col_"):
        return None
    if col in ERROR_COLUMNS:
        return ERROR_TOL
    if col in ORDER_COLUMNS:
        return ORDER_TOL
    if col.startswith("phi_"):
        return BASIS_RTOL * max(abs(v) for v in golden_values)
    raise AssertionError(f"column {col!r} has no comparison class")


def compare(golden_text, text):
    """Per-column worst |delta| of ``text`` against ``golden_text``;
    raises AssertionError on any violation of the column classes."""
    header, golden = _table(golden_text)
    got_header, got = _table(text)
    assert got_header == header
    assert len(got) == len(golden)
    if ORDER_COLUMNS & set(header):
        for col in ERROR_COLUMNS & set(header):
            k = header.index(col)
            assert min(float(row[k]) for row in golden) \
                >= ORDER_ERROR_FLOOR, "order taken on the round-off floor"
    worst = {}
    for j, col in enumerate(header):
        want = [row[j] for row in golden]
        have = [row[j] for row in got]
        tol = _column_tolerance(col, [v for v in map(_num, want)
                                      if v is not None])
        if tol is None:
            assert have == want, f"column {col} differs bitwise"
            worst[col] = 0.0
            continue
        dev = 0.0
        for a, b in zip(map(_num, want), map(_num, have)):
            assert (a is None) == (b is None), f"column {col}: empty cell"
            if a is not None:
                dev = max(dev, abs(a - b))
        assert dev <= tol, f"column {col}: |delta| {dev:.3g} > {tol:.3g}"
        worst[col] = dev
    return worst


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_matches_golden(name, tmp_path):
    produced = _run(name, str(tmp_path))
    golden = _read_outputs(GOLDEN, name)
    assert golden, f"no golden output for {name}"
    assert sorted(produced) == sorted(golden)
    for fname, text in produced.items():
        compare(golden[fname], text)


# The golden studies whose discrete frequencies come from the generalized
# eigensolver on a full space's pencil: (degree, dimension, boundary) of
# the one univariate space each is built on.
EIGENSOLVED = {
    "spectrum-full-dirichlet": (3, 20, 0),
    "spectrum-full-neumann": (4, 20, 1),
    "spectrum-full-mixed": (3, 20, 2),
    "spectrum2d-full-mixed": (3, 8, 2),
}


@pytest.mark.parametrize("name", sorted(EIGENSOLVED))
def test_eigensolved_goldens_against_extended_precision(name):
    # Evidence for the committed omega_h column of each full-space golden.
    # Reference: the eigenvalues of the pencil assembled exactly from the
    # rational knots, in 40 digits (mpmath.eigsy of L^-1 S L^-T); a
    # tensor mode's is the sum of its two univariate ones.  Windows,
    # stated before the run: on nonzero modes a relative gap of n^2 eps
    # (eps cond(S), as for the spectra's round-off windows); on the
    # Neumann constant, whose exact eigenvalue is 0, omega_h^2 at most
    # n eps lambda_max, the eigensolver's backward error there.
    mpmath = pytest.importorskip("mpmath")
    from exact_modes import full_pencil_eigenvalues_mp

    from eigenspline import make_space

    p, n, bc = EIGENSOLVED[name]
    lam = full_pencil_eigenvalues_mp(make_space("full", p, n, bc))
    header, rows = _table(_read_outputs(GOLDEN, name)[f"{name}.csv"])
    modes = [header.index(c) for c in ("l", "l2") if c in header]
    omega_h = header.index("omega_h")
    eps = np.finfo(float).eps
    checked = 0
    with mpmath.workdps(40):
        for row in rows:
            ref = mpmath.fsum(lam[int(row[k]) - 1] for k in modes)
            got = mpmath.mpf(row[omega_h])
            if bc == 1 and row[modes[0]] == "1":
                assert abs(ref) < mpmath.mpf(10) ** -30
                assert got ** 2 <= n * eps * lam[-1]
            else:
                assert abs(got / mpmath.sqrt(ref) - 1) <= n * n * eps, row
            checked += 1
    assert checked == len(rows) == n ** len(modes)


def test_regenerates_only_named_studies(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(globals(), "GOLDEN", str(tmp_path))
    assert _regenerate(["spectrum-optimal-dirichlet"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["spectrum-optimal-dirichlet.csv"]
    assert _regenerate(["no-such-study"]) == 2
    assert "no-such-study" in capsys.readouterr().err


def _regenerate(names):
    """Rewrite the golden outputs of ``names`` (all studies when empty);
    returns an exit status."""
    unknown = sorted(set(names) - set(STUDIES))
    if unknown:
        print(f"unknown studies: {', '.join(unknown)}", file=sys.stderr)
        return 2
    os.makedirs(GOLDEN, exist_ok=True)
    for name in names or STUDIES:
        for old in _read_outputs(GOLDEN, name):
            os.remove(os.path.join(GOLDEN, old))
        main(STUDIES[name] + ["--out", os.path.join(GOLDEN, f"{name}.csv")])
    for path in glob.glob(os.path.join(GOLDEN, "*.gp")):
        os.remove(path)
    return 0


if __name__ == "__main__":
    sys.exit(_regenerate(sys.argv[1:]))

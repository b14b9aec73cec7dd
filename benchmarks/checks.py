"""Output checks for benchmark studies; they run outside the timed region.

A study fails when its CSV is missing, malformed, has the wrong row
count or a non-finite required value, or breaks a property the paper
guarantees:

* Galerkin upper bound: ``rel_err_freq >= -GALERKIN_TOL`` on every mode
  with ``omega_exact > 0``.
* A-priori bound on optimal spaces: ``rel_err_freq <= bound + BOUND_TOL``
  on every nonzero mode.  ``BOUND_TOL`` absorbs round-off on the lowest
  modes, whose bound is far below machine precision.  A zero mode
  (Neumann l = 1, bound 0) only needs ``omega_h <= ZERO_MODE_TOL``.
* Poisson errors equal the values recorded in ``reference_errors.json``
  to ``REF_RTOL`` relative, with a ``REF_ATOL`` absolute floor because
  many of them sit on the ~1e-12 round-off floor, where a new summation
  order alone can double them.  A defect in the discretization, the
  solve or the correction moves these errors by orders of magnitude.

The outlier count of the CLI summary is returned, never gated on: its
false positives on optimal spaces are a known defect that must stay
visible.
"""

from __future__ import annotations

import json
import math
import os

GALERKIN_TOL = 1e-10
BOUND_TOL = 1e-10
ZERO_MODE_TOL = 1e-4
REF_RTOL = 1e-4
REF_ATOL = 1e-10

SPECTRUM_COLUMNS = ("l", "omega_exact", "omega_h", "rel_err_freq",
                    "rel_err_eigfun", "bound")
SPECTRUM2D_COLUMNS = ("l", "l2") + SPECTRUM_COLUMNS[1:]
POISSON_COLUMNS = ("n", "h", "err_l2", "err_h1", "order_l2", "order_h1")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_errors.json")


def reference_key(study):
    return "|".join(str(study[k]) for k in ("cmd", "preset", "correct",
                                            "space", "degree", "dim"))


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """Header tuple and rows of floats (None for an empty cell)."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    header = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row width {len(cells)} != {len(header)}")
        rows.append([float(c) if c else None for c in cells])
    return header, rows


def _finite(v):
    return v is not None and math.isfinite(v)


def parse_summary(text):
    """key=value pairs of the CLI's summary line."""
    out = {}
    for tok in text.split():
        key, sep, val = tok.partition("=")
        if sep:
            out[key] = val
    return out


def check_spectrum(study, header, rows):
    two_d = study["cmd"] == "spectrum2d"
    want = SPECTRUM2D_COLUMNS if two_d else SPECTRUM_COLUMNS
    if header != want:
        return [f"header {header} != {want}"]
    n = study["dim"]
    if len(rows) != (n * n if two_d else n):
        return [f"{len(rows)} rows, expected {n * n if two_d else n}"]
    optimal = study["space"] == "optimal"
    col = {name: k for k, name in enumerate(header)}
    required = [k for name, k in col.items()
                if name != "bound" or optimal]
    errs = []
    for r in rows:
        ls = r[:2] if two_d else r[:1]
        bad = [header[k] for k in required if not _finite(r[k])]
        if bad:
            errs.append(f"mode {ls}: non-finite {','.join(bad)}")
            continue
        exact, rel = r[col["omega_exact"]], r[col["rel_err_freq"]]
        if exact > 0.0 and rel < -GALERKIN_TOL:
            errs.append(f"mode {ls}: rel_err_freq {rel:.3e} below "
                        "the Galerkin upper bound")
        if not optimal:
            continue
        if exact > 0.0:
            if rel > r[col["bound"]] + BOUND_TOL:
                errs.append(f"mode {ls}: rel_err_freq {rel:.3e} exceeds "
                            f"bound {r[col['bound']]:.3e}")
        elif r[col["omega_h"]] > ZERO_MODE_TOL:
            errs.append(f"zero mode {ls}: omega_h {r[col['omega_h']]:.3e}")
    omega_h = [r[col["omega_h"]] for r in rows]
    if not errs and not two_d \
            and any(b < a for a, b in zip(omega_h, omega_h[1:])):
        errs.append("omega_h is not ascending")
    return errs[:5]


def check_poisson(study, header, rows, reference):
    if header != POISSON_COLUMNS:
        return [f"header {header} != {POISSON_COLUMNS}"]
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    n, h, l2, h1, o2, o1 = rows[0]
    errs = []
    if n != study["dim"]:
        errs.append(f"n {n} != {study['dim']}")
    if not all(_finite(v) and v > 0.0 for v in (h, l2, h1)):
        errs.append("non-finite or non-positive h/err_l2/err_h1")
    if o2 is not None or o1 is not None:
        errs.append("order columns must be empty on a single solve")
    ref = reference.get(reference_key(study))
    if ref is None:
        errs.append(f"no reference errors for {reference_key(study)}")
    elif not errs:
        for name, got, want in (("err_l2", l2, ref[0]),
                                ("err_h1", h1, ref[1])):
            if abs(got - want) > max(REF_RTOL * abs(want), REF_ATOL):
                errs.append(f"{name} {got:.17g} != reference {want:.17g}")
    return errs


def check_study(study, out, reference):
    """Failure causes of one finished study (empty when it passed)."""
    try:
        header, rows = read_csv(out)
    except (OSError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    if study["cmd"].startswith("spectrum"):
        errs = check_spectrum(study, header, rows)
        if not os.path.exists(os.path.splitext(out)[0] + ".gp"):
            errs.append("missing gnuplot script")
        return errs
    return check_poisson(study, header, rows, reference)


def outliers_constrained(study, summary):
    """Outlier count the CLI reported for an optimal/reduced study."""
    if study["space"] == "full" or not study["cmd"].startswith("spectrum"):
        return 0
    val = parse_summary(summary).get("outliers", "n/a")
    return 0 if val == "n/a" else int(val)

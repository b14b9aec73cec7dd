"""Study runners and CSV emission.

All CSV files are deterministic: comma separated, LF line endings, floats
printed with 17 significant digits (lossless for binary64 round trips).
A report is stored as columns, one 1-D array each, and every column is
formatted in one pass: integer columns as integers, the others as floats,
with a NaN cell left blank (the study builders store blank cells as NaN);
a report with one row per mode or per dimension formats every value,
the others look for float values repeated between their rows.
Spectrum studies emit one row per mode with columns
``l[,l2],omega_exact,omega_h,rel_err_freq,rel_err_eigfun,bound``;
convergence and Poisson studies emit
``n,h,err_l2,err_h1,order_l2,order_h1`` with the order columns empty on
the first row.  Next to each CSV a small gnuplot script is written as an
optional convenience.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConfigError
from .poisson import ManufacturedProblem2D, solve_poisson_1d, solve_poisson_2d
from .problems import get_preset
from .spaces import BoundaryType, SpaceKind, make_space, reduced_basis_matrix
from .spectrum import mode_errors, mode_errors_2d, outlier_count, \
    spectrum_1d

# Rows formatted per block: bounds the cell strings alive at once.
CSV_BLOCK = 4096

BC_NAMES = {"dirichlet": BoundaryType.DIRICHLET,
            "neumann": BoundaryType.NEUMANN,
            "mixed": BoundaryType.MIXED}


@dataclass
class StudyConfig:
    """Validated study parameters shared by the CLI subcommands."""

    subcommand: str
    kind: SpaceKind = SpaceKind.OPTIMAL
    degrees: tuple = (3,)
    dims: tuple = (50,)
    bc: BoundaryType = BoundaryType.DIRICHLET
    correct: bool = False
    preset: Optional[str] = None
    out: Optional[str] = None

    def single_degree(self):
        if len(self.degrees) != 1:
            raise ConfigError("this study takes a single degree")
        return self.degrees[0]

    def single_dim(self):
        if len(self.dims) != 1:
            raise ConfigError("this study takes a single dimension")
        return self.dims[0]


@dataclass
class CsvReport:
    """In-memory CSV stored as columns: ``columns`` holds the names and
    ``data`` one 1-D array per column, all of one length.

    Integer and boolean columns print as integers, every other column as
    binary64 floats with 17 significant digits; NaN (and None, which a
    column converts to NaN) is a blank cell.  Rows are formatted in blocks
    of ``CSV_BLOCK``.  A report whose only integer column strictly
    ascends (one row per mode of a 1D spectrum, per dimension of a
    Poisson study) formats every value.  In any other report, such as a
    square tensor report, whose (l1, l2) and (l2, l1) rows repeat each
    other's float values bit for bit, or a basis dump, whose samples
    repeat across derivative orders and outside the supports, a float
    column formats each distinct value (by bit pattern) of a block once.
    ``rows`` is a read-only view of the same table as row tuples in which
    blank cells read as None.
    """

    columns: tuple
    data: tuple = ()

    def __post_init__(self):
        self.data = tuple(map(_as_column, self.data))

    @property
    def rows(self):
        self._check()
        return _RowView(self.data)

    def to_text(self):
        self._check()
        parts = [",".join(self.columns)]
        ints = [col for col in self.data if col.dtype.kind in "iu"]
        shared = len(ints) != 1 or not np.all(ints[0][1:] > ints[0][:-1])
        for start in range(0, len(self.rows), CSV_BLOCK):
            cells = [_format_column(col[start:start + CSV_BLOCK], shared)
                     for col in self.data]
            parts.append("\n".join(map(",".join, zip(*cells))))
        parts.append("")
        return "\n".join(parts)

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_text())

    def _check(self):
        if len(self.data) != len(self.columns):
            raise ConfigError("column count does not match the header")
        if len({col.size for col in self.data}) > 1:
            raise ConfigError("CSV columns differ in length")


class _RowView(Sequence):
    """Row tuples of a column store, formed on access."""

    def __init__(self, data):
        self._data = data

    def __len__(self):
        return self._data[0].size if self._data else 0

    def __getitem__(self, k):
        cells = (col[k].item() for col in self._data)
        return tuple(None if v != v else v for v in cells)


def _as_column(values):
    col = np.asarray(values)
    if col.ndim != 1:
        raise ConfigError("a CSV column must be one-dimensional")
    if col.dtype.kind == "b":
        return col.astype(np.int64)
    if col.dtype.kind in "iu":
        return col
    return np.asarray(col, dtype=float)


def _format_column(col, shared=True):
    """Cells of one block of a column.  A float column whose values may
    repeat (``shared``) formats each value distinct by bit pattern once
    (-0.0 and 0.0 stay apart); otherwise it formats every value."""
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    if not shared:
        return _format_floats(col)
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    cells = np.array(_format_floats(bits.view(float)), dtype=object)
    return cells[inverse].tolist()


def _format_floats(values):
    """``%.17g`` cells of a float array, NaN cells blank."""
    cells = list(map("%.17g".__mod__, values.tolist()))
    for k in np.flatnonzero(np.isnan(values)).tolist():
        cells[k] = ""
    return cells


def _write_outputs(report, cfg, plot_script=None):
    if cfg.out:
        report.write(cfg.out)
        if plot_script:
            with open(_plot_path(cfg.out), "w", newline="\n") as fh:
                fh.write(plot_script)


def _plot_path(out):
    stem, _ = os.path.splitext(out)
    return stem + ".gp"


def run_spectrum_study(cfg: StudyConfig):
    """Spectrum study, univariate (``spectrum``) or tensor-product with the
    same degree and dim per direction (``spectrum2d``); returns
    (CsvReport, summary dict)."""
    p = cfg.single_degree()
    n = cfg.single_dim()
    sp = spectrum_1d(make_space(cfg.kind, p, n, cfg.bc))
    if cfg.subcommand == "spectrum2d":
        rep = mode_errors_2d(sp, sp)
    else:
        rep = mode_errors(sp)
    csv = CsvReport(columns=("l", "l2")[:len(rep.ls)] + (
        "omega_exact", "omega_h", "rel_err_freq", "rel_err_eigfun", "bound"),
        data=(*rep.ls, rep.omega_exact, rep.omega_h, rep.e_freq, rep.e_fun,
              rep.bound))
    summary = {
        "max_rel_err_freq": float(np.max(rep.e_freq[~rep.zero_mode]))
        if np.any(~rep.zero_mode) else None,
        "outliers": outlier_count(rep) if n > 2 * p else None,
    }
    _write_outputs(csv, cfg, _spectrum_plot(
        cfg, csv.columns.index("rel_err_freq") + 1))
    return csv, summary


def _load_problem(cfg):
    """The study's preset, validated.  A ``poisson1d`` or ``poisson2d``
    study takes only a preset of its own dimension."""
    if cfg.preset is None:
        raise ConfigError("this study needs --preset")
    prob = get_preset(cfg.preset)
    got = 2 if isinstance(prob, ManufacturedProblem2D) else 1
    want = {"poisson1d": 1, "poisson2d": 2}.get(cfg.subcommand, got)
    if got != want:
        raise ConfigError(
            f"preset {cfg.preset!r} is {got}D but the study is {want}D")
    prob.validate()
    return prob


def _poisson_report(cfg, ns):
    """One row per dimension in ``ns``; the orders compare each row with
    the one before, so they are blank on the first row."""
    prob = _load_problem(cfg)
    hs, errs = [], []
    for n in ns:
        spec = make_space(cfg.kind, cfg.single_degree(), n, cfg.bc)
        if isinstance(prob, ManufacturedProblem2D):
            sol = solve_poisson_2d(spec, spec, prob, correct=cfg.correct)
        else:
            sol = solve_poisson_1d(spec, prob, correct=cfg.correct)
        if sol.err_l2 is None:
            raise ConfigError("preset carries no exact solution to report")
        hs.append(spec.h)
        errs.append((sol.err_l2, sol.err_h1))
    h = np.array(hs)
    err = np.array(errs, dtype=float)
    order = np.full_like(err, np.nan)
    order[1:] = np.log(err[:-1] / err[1:]) / np.log(h[:-1] / h[1:])[:, None]
    return CsvReport(columns=("n", "h", "err_l2", "err_h1",
                              "order_l2", "order_h1"),
                     data=(np.array(ns), h, *err.T, *order.T))


def run_poisson_study(cfg: StudyConfig):
    """Single Poisson solve at one dimension; one CSV row.  The problem
    dimension follows the subcommand (``poisson1d`` or ``poisson2d``)."""
    csv = _poisson_report(cfg, [cfg.single_dim()])
    _write_outputs(csv, cfg)
    err_l2, err_h1 = (float(col[-1]) for col in csv.data[2:4])
    return csv, {"err_l2": err_l2, "err_h1": err_h1}


def run_convergence_study(cfg: StudyConfig):
    """h-refinement study over the configured dimension list."""
    if len(cfg.dims) < 2:
        raise ConfigError("a convergence study needs at least two dims")
    if len(set(cfg.dims)) != len(cfg.dims):
        raise ConfigError("a convergence study needs distinct dims")
    csv = _poisson_report(cfg, list(cfg.dims))
    _write_outputs(csv, cfg, _convergence_plot(cfg))
    order_l2, order_h1 = (float(col[-1]) for col in csv.data[4:6])
    return csv, {"final_order_l2": order_l2, "final_order_h1": order_h1}


def run_basis_dump(cfg: StudyConfig):
    """Sample the reduced basis (201 uniform points, even derivative
    orders) and dump it plus the extraction matrix."""
    p = cfg.single_degree()
    spec = make_space(cfg.kind, p, cfg.single_dim(), cfg.bc)
    xs = np.linspace(0.0, 1.0, 201)
    orders = np.arange(0, p + 1, 2)
    phi = reduced_basis_matrix(spec, xs, r=p)[orders].reshape(-1, spec.n)
    csv = CsvReport(columns=("order", "x") + tuple(
        f"phi_{i}" for i in range(1, spec.n + 1)),
        data=(np.repeat(orders, xs.size), np.tile(xs, orders.size), *phi.T))
    ext = CsvReport(columns=tuple(
        f"col_{j}" for j in range(1, spec.knots.num_basis + 1)),
        data=tuple(spec.extraction.toarray().T))
    if cfg.out:
        csv.write(cfg.out)
        stem, suffix = os.path.splitext(cfg.out)
        ext.write(stem + "_extraction" + (suffix or ".csv"))
    summary = {"n": spec.n, "n_el": spec.n_el}
    return csv, summary


def _spectrum_plot(cfg, err_col):
    if not cfg.out:
        return None
    return "\n".join([
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'mode'",
        "set ylabel 'relative frequency error'",
        f"plot '{os.path.basename(cfg.out)}' skip 1 "
        f"using 0:{err_col} with points pt 7 title 'rel freq err'",
        "",
    ])


def _convergence_plot(cfg):
    if not cfg.out:
        return None
    return "\n".join([
        "set datafile separator ','",
        "set logscale xy",
        "set xlabel 'h'",
        "set ylabel 'error'",
        f"plot '{os.path.basename(cfg.out)}' skip 1 "
        "using 2:3 with linespoints title 'L2', "
        f"'{os.path.basename(cfg.out)}' skip 1 "
        "using 2:4 with linespoints title 'H1'",
        "",
    ])

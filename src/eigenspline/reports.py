"""Study runners and CSV emission.

All CSV files are deterministic: comma separated, LF line endings, floats
printed with 17 significant digits (lossless for binary64 round trips).
Spectrum studies emit one row per mode with columns
``l[,l2],omega_exact,omega_h,rel_err_freq,rel_err_eigfun,bound``;
convergence and Poisson studies emit
``n,h,err_l2,err_h1,order_l2,order_h1`` with the order columns empty on
the first row.  Next to each CSV a small gnuplot script is written as an
optional convenience.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConfigError
from .poisson import ManufacturedProblem1D, ManufacturedProblem2D, \
    solve_poisson_1d, solve_poisson_2d
from .problems import get_preset
from .spaces import BoundaryType, SpaceKind, make_space, reduced_basis_matrix
from .spectrum import mode_errors, mode_errors_2d, outlier_count, \
    outlier_count_2d, spectrum_1d, spectrum_2d

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
    seed: int = 0

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
    """In-memory CSV: column names plus value rows (None renders empty)."""

    columns: tuple
    rows: list = field(default_factory=list)

    def to_text(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ConfigError("row width does not match the header")
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_text())


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if np.isnan(v):
        return ""
    return format(v, ".17g")


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
    """Univariate spectrum study; returns (CsvReport, summary dict)."""
    p = cfg.single_degree()
    n = cfg.single_dim()
    spec = make_space(cfg.kind, p, n, cfg.bc)
    rep = mode_errors(spec, spectrum_1d(spec))
    csv = CsvReport(columns=("l", "omega_exact", "omega_h", "rel_err_freq",
                             "rel_err_eigfun", "bound"))
    for k in range(n):
        csv.rows.append((int(rep.ls[k]), rep.omega_exact[k], rep.omega_h[k],
                         rep.e_freq[k], rep.e_fun[k], rep.bound[k]))
    summary = {
        "max_rel_err_freq": float(np.max(rep.e_freq[~rep.zero_mode]))
        if np.any(~rep.zero_mode) else None,
        "outliers": outlier_count(rep) if n > 2 * p else None,
    }
    _write_outputs(csv, cfg, _spectrum_plot(cfg))
    return csv, summary


def run_spectrum2d_study(cfg: StudyConfig):
    """Tensor-product spectrum study (same degree and dim per direction)."""
    p = cfg.single_degree()
    n = cfg.single_dim()
    spec = make_space(cfg.kind, p, n, cfg.bc)
    rep = mode_errors_2d(spectrum_2d(spec, spec))
    csv = CsvReport(columns=("l", "l2", "omega_exact", "omega_h",
                             "rel_err_freq", "rel_err_eigfun", "bound"))
    for k in range(rep.l1.size):
        csv.rows.append((int(rep.l1[k]), int(rep.l2[k]), rep.omega_exact[k],
                         rep.omega_h[k], rep.e_freq[k], rep.e_fun[k],
                         rep.bound[k]))
    summary = {
        "max_rel_err_freq": float(np.max(rep.e_freq[~rep.zero_mode])),
        "outliers": outlier_count_2d(rep) if n > 2 * p else None,
    }
    _write_outputs(csv, cfg, _spectrum_plot(cfg, two_d=True))
    return csv, summary


def _load_problem(cfg, want_dim):
    if cfg.preset is None:
        raise ConfigError("this study needs --preset")
    prob = get_preset(cfg.preset)
    got = 2 if isinstance(prob, ManufacturedProblem2D) else 1
    if got != want_dim:
        raise ConfigError(
            f"preset {cfg.preset!r} is {got}D but the study is {want_dim}D")
    prob.validate(seed=cfg.seed)
    return prob


def _poisson_rows(cfg, ns, want_dim):
    prob = _load_problem(cfg, want_dim)
    rows = []
    prev = None
    for n in ns:
        spec = make_space(cfg.kind, cfg.single_degree(), n, cfg.bc)
        if want_dim == 1:
            sol = solve_poisson_1d(spec, prob, correct=cfg.correct)
        else:
            sol = solve_poisson_2d(spec, spec, prob, correct=cfg.correct)
        h = spec.h
        if sol.err_l2 is None:
            raise ConfigError("preset carries no exact solution to report")
        ol = oh = None
        if prev is not None:
            hp, l2p, h1p = prev
            ol = np.log(l2p / sol.err_l2) / np.log(hp / h)
            oh = np.log(h1p / sol.err_h1) / np.log(hp / h)
        rows.append((n, h, sol.err_l2, sol.err_h1, ol, oh))
        prev = (h, sol.err_l2, sol.err_h1)
    return rows


def run_poisson_study(cfg: StudyConfig, want_dim):
    """Single Poisson solve at one dimension; one CSV row."""
    rows = _poisson_rows(cfg, [cfg.single_dim()], want_dim)
    csv = CsvReport(columns=("n", "h", "err_l2", "err_h1",
                             "order_l2", "order_h1"), rows=rows)
    _write_outputs(csv, cfg)
    summary = {"err_l2": rows[-1][2], "err_h1": rows[-1][3]}
    return csv, summary


def run_convergence_study(cfg: StudyConfig):
    """h-refinement study over the configured dimension list."""
    if len(cfg.dims) < 2:
        raise ConfigError("a convergence study needs at least two dims")
    prob = get_preset(cfg.preset) if cfg.preset else None
    want_dim = 2 if isinstance(prob, ManufacturedProblem2D) else 1
    rows = _poisson_rows(cfg, list(cfg.dims), want_dim)
    csv = CsvReport(columns=("n", "h", "err_l2", "err_h1",
                             "order_l2", "order_h1"), rows=rows)
    _write_outputs(csv, cfg, _convergence_plot(cfg))
    summary = {"final_order_l2": rows[-1][4], "final_order_h1": rows[-1][5]}
    return csv, summary


def run_basis_dump(cfg: StudyConfig):
    """Sample the reduced basis (201 uniform points, even derivative
    orders) and dump it plus the extraction matrix."""
    p = cfg.single_degree()
    spec = make_space(cfg.kind, p, cfg.single_dim(), cfg.bc)
    xs = np.linspace(0.0, 1.0, 201)
    orders = list(range(0, p + 1, 2))
    vals = reduced_basis_matrix(spec, xs, r=p)
    csv = CsvReport(columns=("order", "x") + tuple(
        f"phi_{i}" for i in range(1, spec.n + 1)))
    for d in orders:
        for q, x in enumerate(xs):
            csv.rows.append((d, x) + tuple(vals[d, q, :]))
    ext = CsvReport(columns=tuple(
        f"col_{j}" for j in range(1, spec.knots.num_basis + 1)))
    for row in spec.extraction:
        ext.rows.append(tuple(row))
    if cfg.out:
        csv.write(cfg.out)
        stem, suffix = os.path.splitext(cfg.out)
        ext.write(stem + "_extraction" + (suffix or ".csv"))
    summary = {"n": spec.n, "n_el": spec.n_el}
    return csv, summary


def _spectrum_plot(cfg, two_d=False):
    if not cfg.out:
        return None
    err_col = 5 if two_d else 4
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

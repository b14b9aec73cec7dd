"""Command line interface.

Exit codes: 0 on success, 2 for configuration errors (bad flags or
inconsistent parameter combinations), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

from .exceptions import ConfigError, NumericalError
from .reports import (BC_NAMES, StudyConfig, _convergence_plot,
                      _write_outputs, run_basis_dump, run_convergence_study,
                      run_poisson_study, run_spectrum_study)
from .spaces import SpaceKind, make_space


def _int_list(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a comma-separated "
                                         "list of integers") from exc


def _add_common(sp, bc=False, preset=False, correct=False, dims_list=False):
    sp.add_argument("--space", choices=[k.value for k in SpaceKind],
                    default="optimal")
    if dims_list:
        sp.add_argument("--degrees", type=_int_list, default=None,
                        help="comma-separated degree sweep")
        sp.add_argument("--degree", type=int, default=None)
        sp.add_argument("--dims", type=_int_list, default=None,
                        help="comma-separated dimension list")
        sp.add_argument("--dim", type=int, default=None)
    else:
        sp.add_argument("--degree", type=int, required=True)
        sp.add_argument("--dim", type=int, required=True)
    if bc:
        sp.add_argument("--bc", choices=sorted(BC_NAMES), default="dirichlet")
    if preset:
        sp.add_argument("--preset", choices=["sin2pi", "ex73", "ex75"],
                        required=True)
    if correct:
        sp.add_argument("--correct", choices=["on", "off"], default="off")
    sp.add_argument("--out", default=None, help="CSV output path")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="eigenspline",
        description="Spline Galerkin spectra and boundary-corrected "
                    "Poisson solves on outlier-free subspaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser(
        "spectrum", help="univariate eigenvalue study"), bc=True)
    _add_common(sub.add_parser(
        "spectrum2d", help="tensor-product eigenvalue study"), bc=True)
    _add_common(sub.add_parser(
        "poisson1d", help="one 1D source-problem solve"),
        preset=True, correct=True)
    _add_common(sub.add_parser(
        "poisson2d", help="one 2D source-problem solve"),
        preset=True, correct=True)
    _add_common(sub.add_parser(
        "convergence", help="h-refinement error study"),
        preset=True, correct=True, dims_list=True)
    _add_common(sub.add_parser(
        "basis-dump", help="sample basis functions and extraction"), bc=True)
    return parser


def _config_from_args(args):
    degrees = getattr(args, "degrees", None) or None
    if degrees is None:
        degree = getattr(args, "degree", None)
        if degree is None:
            raise ConfigError("pass --degree or --degrees")
        degrees = (degree,)
    dims = getattr(args, "dims", None) or None
    if dims is None:
        dim = getattr(args, "dim", None)
        if dim is None:
            raise ConfigError("pass --dim or --dims")
        dims = (dim,)
    if args.out:
        folder = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out) or not os.path.isdir(folder) \
                or not os.access(folder, os.W_OK):
            raise ConfigError(f"cannot write --out {args.out}")
    return StudyConfig(
        subcommand=args.command,
        kind=SpaceKind(args.space),
        degrees=tuple(degrees),
        dims=tuple(dims),
        bc=BC_NAMES[getattr(args, "bc", "dirichlet")],
        correct=getattr(args, "correct", "off") == "on",
        preset=getattr(args, "preset", None),
        out=args.out,
    )


def _print_summary(summary):
    parts = []
    for key, val in summary.items():
        parts.append(f"{key}={'n/a' if val is None else val}")
    print("  ".join(parts))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.subcommand in ("spectrum", "spectrum2d"):
            _, summary = run_spectrum_study(cfg)
        elif cfg.subcommand in ("poisson1d", "poisson2d"):
            _, summary = run_poisson_study(cfg)
        elif cfg.subcommand == "convergence":
            summary = _run_convergence(cfg)
        else:
            _, summary = run_basis_dump(cfg)
        _print_summary(summary)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _run_convergence(cfg):
    if len(cfg.degrees) == 1:
        _, summary = run_convergence_study(cfg)
        return summary
    if len(set(cfg.degrees)) != len(cfg.degrees):
        raise ConfigError("a degree sweep needs distinct degrees")
    # build every space of the sweep before any study, so that a bad
    # degree or dimension stops it before the first study runs
    for p in cfg.degrees:
        for n in cfg.dims:
            make_space(cfg.kind, p, n, cfg.bc)
    summary, done = {}, []
    for p in cfg.degrees:
        sub = replace(cfg, degrees=(p,))
        if cfg.out:
            stem, suffix = os.path.splitext(cfg.out)
            sub = replace(sub, out=f"{stem}_p{p}{suffix or '.csv'}")
        # write nothing until every degree has succeeded, so that a failure
        # at a later degree leaves no files of the earlier ones
        csv, part = run_convergence_study(replace(sub, out=None))
        done.append((csv, sub))
        summary.update((f"p{p}_{key}", val) for key, val in part.items())
    for csv, sub in done:
        _write_outputs(csv, sub, _convergence_plot(sub))
    return summary


if __name__ == "__main__":
    sys.exit(main())

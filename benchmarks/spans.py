"""Span tracing installed from outside the program.

:class:`Tracer` wraps the public functions of every layer module of the
``eigenspline`` package, plus the CSV writer method, in every module
namespace that binds them, so calls made through ``from ... import``
names are traced too.  Each call records a span ``[name, start, end,
parent, study]``; spans stay in memory until the benchmark writes them
out.  :meth:`Tracer.restore` puts every original function back.

:func:`layer_metrics` turns spans into per-layer metrics: self time (a
span's duration minus its children's) summed into named buckets, call
counts, and counters computed from argument and result shapes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "eigenspline"
LAYERS = ("splines", "spaces", "assembly", "eigensolve", "spectrum",
          "poisson", "reports", "cli")

# Self-time bucket of each traced function; unlisted functions of a layer
# go to the layer's default bucket.
BUCKETS = {
    "spaces.reduced_basis_matrix": "spaces.basis_matrix_s",
    "spaces.eval_reduced_basis": "spaces.basis_matrix_s",
    "assembly.bspline_gram": "assembly.gram_s",
    "assembly.assemble_mass": "assembly.congruence_s",
    "assembly.assemble_stiffness": "assembly.congruence_s",
    "assembly.assemble_load": "assembly.load_s",
    "assembly.bspline_load": "assembly.load_s",
    "assembly.error_b_coefficients": "assembly.error_s",
    "assembly.function_error": "assembly.error_s",
    "spectrum.spectrum_1d": "spectrum.efun_s",
    "spectrum.exact_eigenfunction": "spectrum.efun_s",
    "poisson.solve_poisson_2d": "poisson.solve2d_self_s",
    "poisson.fast_diagonalization_solve": "poisson.fastdiag_s",
    "poisson.hermite_correction_1d": "poisson.correction_s",
    "poisson.hermite_data_from_problem": "poisson.correction_s",
    "poisson.hermite_data_orders": "poisson.correction_s",
    "poisson.boundary_correction_2d": "poisson.correction_s",
    "poisson.trace_from_f": "poisson.correction_s",
    "reports.CsvReport.write": "reports.csv_s",
    "reports.CsvReport.to_text": "reports.csv_s",
}
DEFAULT_BUCKET = {
    "splines": "splines.self_s",
    "spaces": "spaces.make_space_s",
    "assembly": "assembly.quad_s",
    "eigensolve": "eigensolve.s",
    "spectrum": "spectrum.report_s",
    "poisson": "poisson.solve1d_self_s",
    "reports": "reports.study_s",
    "cli": "cli.self_s",
}
TIME_METRICS = tuple(sorted(set(BUCKETS.values())
                            | set(DEFAULT_BUCKET.values())))
METHODS = {"reports": {"CsvReport": ("write", "to_text")}}


def _shape_counters(name, args, out, acc):
    """Counters computed from argument and result shapes of one call."""
    if name == "splines.bspline_eval_batch":
        acc["splines.points"] += len(out[0])
    elif name == "assembly.bspline_gram":
        acc["assembly.gram_calls"] += 1
        acc["assembly.dense_bytes"] += 8 * out.size
    elif name in ("assembly.assemble_mass", "assembly.assemble_stiffness"):
        # E @ G (n x nb) and the dense reduced matrix (n x n) before banding
        spec = args[0]
        n, nb = spec.n, spec.knots.num_basis
        acc["assembly.dense_bytes"] += 8 * (n * nb + n * n)
        acc["_band_kept"] += (out.bandwidth + 1) * n
        acc["_band_dense"] += n * n
    elif name == "eigensolve.generalized_eigen_sym":
        acc["eigensolve.calls"] += 1
        acc["eigensolve.n3_sum"] += len(out[0]) ** 3
    elif name == "eigensolve.jacobi_generalized_eigen":
        acc["eigensolve.calls"] += 1
        acc["eigensolve.n3_sum"] += len(out) ** 3
    elif name == "spaces.reduced_basis_matrix":
        # the B-spline sample array and its product with the extraction
        orders, nq, n = out.shape
        acc["spaces.basis_matrix_bytes"] += \
            8 * orders * nq * (args[0].knots.num_basis + n)
    elif name == "spectrum.spectrum_1d":
        spec = args[0]
        nq = spec.n_el * (spec.p + 3)
        acc["spectrum.efun_bytes"] += 2 * nq * spec.n * 8
    elif name == "reports.CsvReport.to_text":
        acc["reports.csv_bytes"] += len(out)
    elif name == "reports.CsvReport.write":
        acc["reports.rows"] += len(args[0].rows)


# Counters derived from array shapes: they repeat exactly run to run.
COMPUTED = ("assembly.dense_bytes", "assembly.band_useful_ratio",
            "eigensolve.n3_sum", "spaces.basis_matrix_bytes",
            "spectrum.efun_bytes", "reports.csv_bytes")
COUNTERS = ("splines.calls", "splines.points", "assembly.gram_calls",
            "assembly.dense_bytes", "assembly.band_useful_ratio",
            "eigensolve.calls", "eigensolve.n3_sum",
            "spaces.basis_matrix_bytes", "spectrum.efun_bytes",
            "reports.csv_bytes", "reports.rows")


class Tracer:
    """Span recorder; :meth:`install` patches the package, :meth:`restore`
    undoes it."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.study = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.study]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            _shape_counters(name, args, out, counters)
            return out

        return traced

    def layer_functions(self):
        """{original function: span name} over the layer modules."""
        found = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                found[obj] = f"{layer}.{attr}"
        return found

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        funcs = self.layer_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in funcs.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or (modname != PACKAGE
                               and not modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, classes in METHODS.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patched.append((cls, meth, orig))
                    setattr(cls, meth,
                            self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


def self_times(spans):
    """Per-span self time: duration minus the union of child intervals.

    Children of one span never overlap (single thread), so the union is
    their sum.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans, counters):
    """Per-layer time buckets, call counts and computed counters."""
    out = dict.fromkeys(TIME_METRICS, 0.0) | dict.fromkeys(COUNTERS, 0)
    for s, self_s in zip(spans, self_times(spans)):
        name = s[0]
        layer = name.split(".", 1)[0]
        out[BUCKETS.get(name, DEFAULT_BUCKET[layer])] += self_s
        parent = s[3]
        if layer == "splines" and (parent < 0 or not
                                   spans[parent][0].startswith("splines.")):
            out["splines.calls"] += 1
    for key, val in counters.items():
        if not key.startswith("_"):
            out[key] = val
    if counters.get("_band_dense"):
        out["assembly.band_useful_ratio"] = \
            counters["_band_kept"] / counters["_band_dense"]
    return out

"""Self-checks of the benchmark (not part of the package's test suite).

    python3 -m pytest -q benchmarks/test_benchmarks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import eigenspline.cli as cli  # noqa: E402


def _run(study, out):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert cli.main(workloads.argv(study, out)) == 0
    return buf.getvalue()


def _spectrum_study(space="optimal", bc="neumann", dim=24):
    return {"cmd": "spectrum", "space": space, "degree": 3, "dim": dim,
            "bc": bc, "preset": None, "correct": None}


def test_same_seed_same_argv_lists():
    for name in workloads.WORKLOADS:
        first = [workloads.argv(s) for s in workloads.studies(name, 11)]
        again = [workloads.argv(s) for s in workloads.studies(name, 11)]
        other = [workloads.argv(s) for s in workloads.studies(name, 12)]
        assert first == again
        assert first != other


def test_seeded_dims_stay_in_their_windows():
    for seed in range(20):
        for study in workloads.studies("small-sweep", seed):
            lo, hi = workloads.sweep_dim_range(study["degree"])
            assert lo <= study["dim"] <= hi
        assert sum(s["dim"] for s in workloads.studies("small-sweep", seed)) \
            == sum(s["dim"] for s in workloads.studies("small-sweep", 0))
        for name in ("spectrum1d-large", "poisson1d-large", "tensor2d"):
            dims = sorted((s["cmd"], s["space"], s["degree"], s["dim"])
                          for s in workloads.studies(name, seed))
            slots = sorted((s["cmd"], s["space"], s["degree"], s["dim"])
                           for s in workloads.WORKLOADS[name].slots)
            for got, slot in zip(dims, slots):
                lo, hi = workloads.dim_window(slot[3])
                assert got[:3] == slot[:3] and lo <= got[3] <= hi


def test_reference_covers_every_poisson_study():
    reference = checks.load_reference()
    for name in workloads.WORKLOADS:
        for seed in range(30):
            for study in workloads.studies(name, seed):
                if study["cmd"].startswith("poisson"):
                    assert checks.reference_key(study) in reference


def test_checker_accepts_a_good_spectrum(tmp_path):
    study = _spectrum_study()
    out = str(tmp_path / "s.csv")
    summary = _run(study, out)
    assert checks.check_study(study, out, {}) == []
    assert checks.outliers_constrained(study, summary) >= 0


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:-2] + lines[-1:],             # a row missing
    lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
    lambda lines: lines[:3] + ["x" + lines[3]] + lines[4:],
    lambda lines: [lines[0].replace("omega_h", "omega")] + lines[1:],
])
def test_checker_rejects_a_corrupted_csv(tmp_path, corrupt):
    study = _spectrum_study()
    out = str(tmp_path / "s.csv")
    _run(study, out)
    with open(out) as fh:
        lines = fh.read().split("\n")
    with open(out, "w") as fh:
        fh.write("\n".join(corrupt(lines)))
    assert checks.check_study(study, out, {})


@pytest.mark.parametrize("bad", ["nan", "", "inf"])
def test_checker_rejects_a_nan(tmp_path, bad):
    study = _spectrum_study()
    out = str(tmp_path / "s.csv")
    _run(study, out)
    with open(out) as fh:
        lines = fh.read().split("\n")
    cells = lines[5].split(",")
    cells[2] = bad                                      # omega_h of mode 5
    lines[5] = ",".join(cells)
    with open(out, "w") as fh:
        fh.write("\n".join(lines))
    assert any("non-finite" in e for e in checks.check_study(study, out, {}))


def test_checker_flags_a_bound_violation_but_not_the_zero_mode(tmp_path):
    study = _spectrum_study()
    out = str(tmp_path / "s.csv")
    _run(study, out)
    header, rows = checks.read_csv(out)
    assert checks.check_spectrum(study, header, rows) == []
    assert rows[0][1] == 0.0                            # Neumann zero mode
    rows[0][2] = rows[0][3] = 2e-6                      # round-off, bound 0
    assert checks.check_spectrum(study, header, rows) == []
    rows[0][2] = rows[0][3] = 1e-3
    assert any("zero mode" in e
               for e in checks.check_spectrum(study, header, rows))
    rows[0][2] = rows[0][3] = 0.0
    rows[7][3] = rows[7][5] * 1.5 + 1e-9
    assert any("exceeds bound" in e
               for e in checks.check_spectrum(study, header, rows))
    rows[7][3] = -1e-6
    assert any("Galerkin" in e
               for e in checks.check_spectrum(study, header, rows))


def test_checker_compares_poisson_errors_with_the_reference(tmp_path):
    study = {"cmd": "poisson1d", "space": "optimal", "degree": 3, "dim": 40,
             "bc": "dirichlet", "preset": "ex73", "correct": "on"}
    out = str(tmp_path / "p.csv")
    _run(study, out)
    _, rows = checks.read_csv(out)
    key = checks.reference_key(study)
    assert checks.check_study(study, out, {key: rows[0][2:4]}) == []
    assert checks.check_study(study, out, {key: [rows[0][2] * 1.01,
                                                 rows[0][3]]})
    assert checks.check_study(study, out, {})


def _bindings():
    return {(name, attr): obj
            for name, mod in list(sys.modules.items())
            if name == "eigenspline" or name.startswith("eigenspline.")
            for attr, obj in vars(mod).items()} \
        | {("CsvReport", attr): obj for attr, obj in
           vars(sys.modules["eigenspline.reports"].CsvReport).items()}


def test_tracer_restores_the_original_functions(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        tracer.study = 0
        _run(_spectrum_study(), str(tmp_path / "s.csv"))
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "reports.run_spectrum_study", "spectrum.spectrum_1d",
            "assembly.assemble_mass", "assembly.bspline_gram",
            "eigensolve.generalized_eigen_sym",
            "splines.bspline_eval_batch", "reports.CsvReport.write"} <= names
    roots = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    total = sum(spans.self_times(tracer.spans))
    assert math.isclose(total, roots[0][2] - roots[0][1], rel_tol=1e-9)
    metrics = spans.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["eigensolve.calls"] == 1
    assert metrics["eigensolve.n3_sum"] == 24 ** 3
    assert metrics["reports.rows"] == 24


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    produced = set(spans.TIME_METRICS) | set(spans.COUNTERS) \
        | set(worker.TRACE_METRICS) | {"spectrum.outliers_constrained"}
    assert {m["name"] for m in spec["per_layer"]} == produced

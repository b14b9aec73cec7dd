"""Tests for CSV emission, study runners and the command line interface."""

import math
import os
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenspline import ConfigError, ManufacturedProblem1D, NumericalError, \
    make_space
from eigenspline.cli import build_parser, main
from eigenspline.reports import (CsvReport, StudyConfig, run_basis_dump,
                                 run_convergence_study, run_poisson_study,
                                 run_spectrum_study)
from eigenspline.spectrum import EFUN_BLOCK, spectrum_2d
from test_golden import STUDIES


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    lines = raw.decode("ascii").strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def reference_fmt(v):
    """Per-value cell formatter the column writer must reproduce."""
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


def reference_text(columns, rows):
    lines = [",".join(columns)]
    lines += [",".join(reference_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestCsvReport:
    def test_formatting(self):
        csv = CsvReport(columns=("a", "b", "c", "d"),
                        data=([3], [1.0 / 3.0], [None], [float("nan")]))
        text = csv.to_text()
        assert text.splitlines()[0] == "a,b,c,d"
        cells = text.splitlines()[1].split(",")
        assert cells[0] == "3"
        assert float(cells[1]) == 1.0 / 3.0
        assert cells[2] == "" and cells[3] == ""

    def test_row_width_checked(self):
        csv = CsvReport(columns=("a", "b"), data=([1.0],))
        with pytest.raises(ConfigError):
            csv.to_text()

    def test_column_lengths_checked(self):
        csv = CsvReport(columns=("a", "b"), data=([1.0, 2.0], [3]))
        with pytest.raises(ConfigError):
            csv.to_text()
        with pytest.raises(ConfigError):
            csv.rows

    @pytest.mark.parametrize("block", [3, None])
    def test_matches_per_value_formatter(self, block, monkeypatch):
        if block is not None:
            # blocks of 3 over 7 rows: a full block and a partial one
            monkeypatch.setattr("eigenspline.reports.CSV_BLOCK", block)
        rows = [
            (float("nan"), None, 0, True, 7),
            (float("inf"), 1.5, np.int64(-3), False, np.int32(2)),
            (-float("inf"), None, 2 ** 60 + 1, np.bool_(True), -1),
            (-0.0, float("nan"), np.uint8(255), np.bool_(False), 0),
            (5e-324, -5e-324, -7, True, np.int64(9)),
            (1e308, 1.0 / 3.0, 12, False, 10 ** 15),
            (np.float64(-2.5e-300), np.float32(0.1), 1, True, -2 ** 40),
        ]
        columns = ("f", "g", "i", "b", "j")
        csv = CsvReport(columns=columns, data=tuple(zip(*rows)))
        assert csv.to_text() == reference_text(columns, rows)
        assert [type(v) for v in csv.rows[1]] == [float, float, int, int,
                                                 int]
        assert csv.rows[0][:2] == (None, None) and csv.rows[3][1] is None

    @pytest.mark.parametrize("name", sorted(STUDIES))
    def test_studies_match_per_value_formatter(self, name, tmp_path,
                                               monkeypatch):
        written = []
        write = CsvReport.write

        def record(report, path):
            written.append(report)
            write(report, path)

        monkeypatch.setattr(CsvReport, "write", record)
        assert main(STUDIES[name] + ["--out", str(tmp_path / "s.csv")]) == 0
        assert written
        for report in written:
            rows = zip(*(col.tolist() for col in report.data))
            assert report.to_text() == reference_text(report.columns, rows)

    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50)
        csv = CsvReport(columns=("v",), data=(vals,))
        parsed = [float(line) for line in csv.to_text().splitlines()[1:]]
        assert all(a == b for a, b in zip(parsed, vals))


class TestSpectrumStudies:
    def test_linear_tiny_study(self):
        # 4 modes, all frequency errors nonnegative
        cfg = StudyConfig(subcommand="spectrum", kind="optimal",
                          degrees=(1,), dims=(4,), bc=0)
        csv, summary = run_spectrum_study(cfg)
        assert csv.columns == ("l", "omega_exact", "omega_h", "rel_err_freq",
                               "rel_err_eigfun", "bound")
        assert len(csv.rows) == 4
        assert all(row[3] >= 0 for row in csv.rows)
        assert summary["outliers"] == 0

    def test_full_quintic_outliers(self):
        cfg = StudyConfig(subcommand="spectrum", kind="full",
                          degrees=(5,), dims=(100,), bc=0)
        _, summary = run_spectrum_study(cfg)
        assert summary["outliers"] == 4

    def test_optimal_quintic_clean(self):
        cfg = StudyConfig(subcommand="spectrum", kind="optimal",
                          degrees=(5,), dims=(200,), bc=0)
        _, summary = run_spectrum_study(cfg)
        assert summary["outliers"] == 0

    def test_2d_study_shapes(self):
        cfg = StudyConfig(subcommand="spectrum2d", kind="optimal",
                          degrees=(2,), dims=(12,), bc=0)
        csv, summary = run_spectrum_study(cfg)
        assert csv.columns[:2] == ("l", "l2")
        assert len(csv.rows) == 144
        assert summary["outliers"] == 0

    def test_2d_study_matches_two_separate_spaces(self, monkeypatch):
        cfg = StudyConfig(subcommand="spectrum2d", kind="optimal",
                          degrees=(3,), dims=(14,), bc=2)
        shared, summary = run_spectrum_study(cfg)

        def separate(spec1, spec2):
            return spectrum_2d(spec1, make_space(spec2.kind, spec2.p,
                                                 spec2.n, spec2.bc))

        monkeypatch.setattr("eigenspline.reports.spectrum_2d", separate)
        apart, summary_apart = run_spectrum_study(cfg)
        assert shared.to_text() == apart.to_text()
        assert summary == summary_apart

    def test_requires_single_degree(self):
        cfg = StudyConfig(subcommand="spectrum", degrees=(2, 3), dims=(20,))
        with pytest.raises(ConfigError):
            run_spectrum_study(cfg)


class TestConvergenceStudies:
    def test_sine_cubic_order_window(self):
        cfg = StudyConfig(subcommand="convergence", kind="optimal",
                          degrees=(3,), dims=(16, 32, 64, 128), bc=0,
                          preset="sin2pi")
        csv, summary = run_convergence_study(cfg)
        assert csv.columns == ("n", "h", "err_l2", "err_h1",
                               "order_l2", "order_h1")
        assert csv.rows[0][4] is None and csv.rows[0][5] is None
        assert 3.75 <= summary["final_order_l2"] <= 4.25
        assert 2.75 <= summary["final_order_h1"] <= 3.25

    def test_capped_problem_without_correction(self):
        cfg = StudyConfig(subcommand="convergence", kind="optimal",
                          degrees=(5,), dims=(16, 32, 64), bc=0,
                          preset="ex73")
        _, summary = run_convergence_study(cfg)
        assert summary["final_order_l2"] < 4

    def test_correction_restores_high_order(self):
        cfg = StudyConfig(subcommand="convergence", kind="optimal",
                          degrees=(5,), dims=(16, 32, 64), bc=0,
                          preset="ex73", correct=True)
        _, summary = run_convergence_study(cfg)
        assert summary["final_order_l2"] > 5.5

    def test_orders_follow_h_ratios(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = StudyConfig(subcommand="convergence", kind="full",
                          degrees=(4,), dims=(8, 16, 32), bc=0,
                          preset="sin2pi", out=str(out))
        run_convergence_study(cfg)
        _, rows = read_csv(out)
        for prev, cur in zip(rows[:-1], rows[1:]):
            hp, ep = float(prev[1]), float(prev[2])
            hc, ec = float(cur[1]), float(cur[2])
            assert_allclose(float(cur[4]),
                            math.log(ep / ec) / math.log(hp / hc),
                            rtol=1e-12)

    def test_needs_two_dims(self):
        cfg = StudyConfig(subcommand="convergence", degrees=(3,),
                          dims=(16,), preset="sin2pi")
        with pytest.raises(ConfigError):
            run_convergence_study(cfg)

    def test_repeated_dims_rejected_before_solving(self, tmp_path, capsys):
        # equal dims give h ratio 1, so an order would be 0/0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["convergence", "--degrees", "1", "--dims", "8,8",
                         "--preset", "ex73", "--correct", "on",
                         "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert not [w for w in caught if w.category is RuntimeWarning]
        err = capsys.readouterr().err
        assert err.startswith("error:") and "RuntimeWarning" not in err
        assert os.listdir(tmp_path) == []

    def test_dimension_mismatch_rejected(self):
        cfg = StudyConfig(subcommand="poisson1d", degrees=(3,),
                          dims=(16,), preset="ex75")
        with pytest.raises(ConfigError):
            run_poisson_study(cfg)


class TestBasisDump:
    def test_extraction_file_matches_matrix(self, tmp_path):
        out = tmp_path / "basis.csv"
        cfg = StudyConfig(subcommand="basis-dump", kind="optimal",
                          degrees=(3,), dims=(4,), bc=0, out=str(out))
        _, summary = run_basis_dump(cfg)
        assert summary == {"n": 4, "n_el": 5}
        header, rows = read_csv(tmp_path / "basis_extraction.csv")
        got = np.array([[float(c) for c in row] for row in rows])
        expected = make_space("optimal", 3, 4, 0).extraction.toarray()
        assert np.array_equal(got, expected)
        assert header == [f"col_{j}" for j in range(1, 9)]

    def test_reduced_dump(self, tmp_path):
        out = tmp_path / "red.csv"
        cfg = StudyConfig(subcommand="basis-dump", kind="reduced",
                          degrees=(2,), dims=(6,), bc=0, out=str(out))
        run_basis_dump(cfg)
        _, rows = read_csv(tmp_path / "red_extraction.csv")
        got = np.array([[float(c) for c in row] for row in rows])
        expected = make_space("reduced", 2, 6, 0).extraction.toarray()
        assert np.array_equal(got, expected)

    def test_sampled_derivatives_vanish_at_ends(self, tmp_path):
        out = tmp_path / "b.csv"
        cfg = StudyConfig(subcommand="basis-dump", kind="optimal",
                          degrees=(3,), dims=(8,), bc=0, out=str(out))
        csv, _ = run_basis_dump(cfg)
        # orders 0 and 2, 201 points each
        assert len(csv.rows) == 2 * 201
        scale = {}
        for row in csv.rows:
            scale.setdefault(row[0], 0.0)
            scale[row[0]] = max(scale[row[0]], max(abs(v) for v in row[2:]))
        for row in csv.rows:
            if row[1] in (0.0, 1.0):
                assert max(abs(v) for v in row[2:]) <= 1e-9 * scale[row[0]]


class TestCli:
    def test_parser_covers_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("spectrum", "spectrum2d", "poisson1d", "poisson2d",
                     "convergence", "basis-dump"):
            assert name in text

    def test_spectrum_run(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--space", "full", "--degree", "5",
                     "--dim", "100", "--bc", "dirichlet",
                     "--out", str(out)])
        assert code == 0
        msg = capsys.readouterr().out
        assert "outliers=4" in msg
        assert "max_rel_err_freq=" in msg
        header, rows = read_csv(out)
        assert len(rows) == 100
        # gnuplot script sits next to the csv and points at it
        gp = (tmp_path / "spec.gp").read_text()
        assert "spec.csv" in gp and "using 0:4" in gp

    def test_byte_identical_reruns(self, tmp_path):
        args = ["convergence", "--space", "optimal", "--degree", "3",
                "--dims", "8,16,32", "--preset", "sin2pi", "--correct",
                "on"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.gp").read_text().replace("a.csv", "b.csv") \
            == (tmp_path / "b.gp").read_text()

    @pytest.mark.parametrize("command,bc,dim", [
        ("spectrum", "dirichlet", 2 * EFUN_BLOCK + 7),
        ("spectrum", "neumann", 2 * EFUN_BLOCK + 7),
        ("spectrum", "mixed", 2 * EFUN_BLOCK + 7),
        ("spectrum2d", "neumann", EFUN_BLOCK + 5),
    ])
    def test_byte_identical_spectrum_reruns(self, tmp_path, command, bc,
                                            dim):
        args = [command, "--space", "optimal", "--degree", "4", "--dim",
                str(dim), "--bc", bc]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_degree_sweep_writes_per_degree_files(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--degrees", "2,3", "--dims", "8,16",
                     "--preset", "sin2pi", "--out", str(out)])
        assert code == 0
        assert not out.exists()
        assert (tmp_path / "conv_p2.csv").exists()
        assert (tmp_path / "conv_p3.csv").exists()
        msg = capsys.readouterr().out
        assert "p2_final_order_l2=" in msg and "p3_final_order_l2=" in msg

    def test_poisson_runs(self, tmp_path, capsys):
        code = main(["poisson1d", "--preset", "ex73", "--degree", "3",
                     "--dim", "32", "--correct", "on"])
        assert code == 0
        assert "err_l2=" in capsys.readouterr().out
        code = main(["poisson2d", "--preset", "ex75", "--degree", "2",
                     "--dim", "10", "--correct", "off"])
        assert code == 0

    def test_basis_dump_cli(self, tmp_path):
        out = tmp_path / "basis.csv"
        code = main(["basis-dump", "--space", "reduced", "--degree", "8",
                     "--dim", "2", "--out", str(out)])
        assert code == 0
        assert out.exists() and (tmp_path / "basis_extraction.csv").exists()
        assert not (tmp_path / "basis.gp").exists()

    def test_config_error_exit_code(self, capsys):
        code = main(["spectrum", "--space", "reduced", "--degree", "3",
                     "--dim", "8"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_preset_dimension_error_exit_code(self, capsys):
        code = main(["poisson1d", "--preset", "ex75", "--degree", "3",
                     "--dim", "16"])
        assert code == 2

    def test_numerical_error_exit_code(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr("eigenspline.cli.run_spectrum_study", boom)
        code = main(["spectrum", "--degree", "2", "--dim", "12"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_load_exits_3(self, tmp_path, monkeypatch, capsys):
        nan_problem = ManufacturedProblem1D(
            name="nan", f=lambda x: np.full_like(x, np.nan))
        monkeypatch.setattr("eigenspline.reports.get_preset",
                            lambda name: nan_problem)
        out = tmp_path / "p.csv"
        code = main(["poisson1d", "--preset", "ex73", "--degree", "3",
                     "--dim", "16", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # no preset reaches this path; a substituted problem does
        huge = ManufacturedProblem1D(
            name="huge", f=lambda x: np.full_like(x, 1e300),
            u=lambda x: x * (1.0 - x))
        monkeypatch.setattr("eigenspline.reports.get_preset",
                            lambda name: huge)
        out = tmp_path / "p.csv"
        code = main(["poisson1d", "--preset", "ex73", "--degree", "3",
                     "--dim", "12", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error integral is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["poisson1d", "--preset", "ex73", "--degree", "3", "--dim", "16"],
        ["poisson2d", "--preset", "ex75", "--degree", "3", "--dim", "12"],
    ], ids=lambda args: args[0])
    def test_singular_endpoint_system_exits_3(self, tmp_path, monkeypatch,
                                              capsys, args):
        monkeypatch.setattr("eigenspline.poisson.active_derivatives",
                            lambda kv, x: np.zeros((kv.p + 1, kv.p + 1)))
        out = tmp_path / "p.csv"
        code = main(args + ["--correct", "on", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and "Traceback" not in err
        assert "endpoint system" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["poisson1d", "--preset", "ex73", "--degree", "3", "--dim", "24",
         "--correct", "on"],
        ["poisson2d", "--preset", "ex75", "--degree", "3", "--dim", "12",
         "--correct", "on"],
        ["basis-dump", "--space", "optimal", "--degree", "4", "--dim", "9",
         "--bc", "mixed"],
    ], ids=lambda args: args[0])
    def test_byte_identical_solve_and_dump_reruns(self, tmp_path, args):
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            assert main(args + ["--out", str(tmp_path / run / "o.csv")]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        if args[0] == "basis-dump":
            assert "o_extraction.csv" in names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_missing_dim_rejected(self, capsys):
        code = main(["convergence", "--degree", "3", "--preset", "sin2pi"])
        assert code == 2

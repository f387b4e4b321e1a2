import csv
import json

import numpy as np
import pytest

import platelab as pl
from platelab.cli import VALID_CHECKS, main
from conftest import orbit_aligned_mass


def run(argv):
    return main(argv)


# keys of every report; the 2-D path adds restart_thetas and images
STABLE_KEYS = {"domain", "h", "H", "mass", "grid", "theta", "t", "outer_iterations",
               "termination", "timestamp", "solver_version", "radial"}

# one bad value per optimizer option; each exited 2 or was accepted before
# the options validated themselves
BAD_OPTIONS = pytest.mark.parametrize("flags", [
    ["--max-outer", "0"],
    ["--restarts", "-2"],
    ["--theta-tol", "-1"],
    ["--tol", "1e-3"],
    ["--tol", "-1"],
], ids=["max-outer-0", "restarts-neg", "theta-tol-neg", "tol-above-1e-6", "tol-neg"])


@pytest.fixture(scope="module")
def disk_solve(tmp_path_factory):
    """One CLI solve on the disk with an orbit-aligned mass, shared by the
    verify tests."""
    d = tmp_path_factory.mktemp("cli_disk")
    M = orbit_aligned_mass(pl.disk(1.0), 129, 1.0, 2.0)
    report = d / "report.json"
    fields = d / "fields.csv"
    rc = run([
        "solve", "--domain", "disk", "--radius", "1",
        "--h", "1", "--H", "2", "--mass", "%.17g" % M,
        "--grid", "129", "--out", str(report), "--fields", str(fields),
        "--images", str(d / "img"),
    ])
    assert rc == 0
    return d, report, fields


class TestSolve:
    def test_report_schema_and_files(self, disk_solve):
        d, report, fields = disk_solve
        rep = json.loads(report.read_text())
        for key in ("domain", "h", "H", "mass", "grid", "theta", "t",
                    "outer_iterations", "termination", "timestamp",
                    "solver_version"):
            assert key in rep
        assert rep["termination"] in ("rho-fixed", "theta-converged")
        assert rep["solver_version"] == pl.__version__
        assert (d / "img_u.pgm").exists() and (d / "img_rho.pgm").exists()
        assert rep["images"]["u"]["max"] > rep["images"]["u"]["min"]
        with open(d / "img_u.pgm", "rb") as fh:
            assert fh.read(2) == b"P5"

    def test_fields_round_trip_exactly(self, disk_solve):
        d, report, fields = disk_solve
        rep = json.loads(report.read_text())
        grid = pl.build_grid(pl.disk(1.0), rep["grid"])
        with open(fields) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "u", "v", "rho"]
        assert len(rows) - 1 == grid.n
        cols = np.array([[float(c) for c in r] for r in rows[1:]]).T
        pair, _ = pl.optimize(pl.disk(1.0), rep["grid"], rep["h"], rep["H"], rep["mass"])
        for col, want in zip(cols, (grid.node_x, grid.node_y, pair.u.values,
                                    pair.v.values, pair.rho.values)):
            assert np.array_equal(col, want)

    def test_report_keys_2d(self, disk_solve):
        d, report, fields = disk_solve
        rep = json.loads(report.read_text())
        assert set(rep) == STABLE_KEYS | {"restart_thetas", "images"}
        assert set(rep["images"]) == {"u", "rho"}

    def test_square_uniform_theta(self, tmp_path):
        report = tmp_path / "r.json"
        rc = run([
            "solve", "--domain", "square", "--h", "1", "--H", "1",
            "--mass", "0.98443603515625",  # discrete area of the 127x127 interior
            "--grid", "129", "--out", str(report),
        ])
        assert rc == 0
        rep = json.loads(report.read_text())
        assert abs(rep["theta"] - 389.6364) / 389.6364 < 0.01

    def test_missing_mass_names_flag(self, capsys):
        rc = run(["solve", "--domain", "square", "--h", "1", "--H", "1"])
        assert rc == 1
        assert "--mass" in capsys.readouterr().err

    def test_annulus_requires_inner(self, capsys):
        rc = run(["solve", "--domain", "annulus", "--h", "1", "--H", "2",
                  "--mass", "1.0"])
        assert rc == 1
        assert "--inner" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--h", "3", "--H", "2", "--mass", "4"],
        ["--h", "1", "--H", "2", "--mass", "4", "--grid", "3"],
        ["--h", "1", "--H", "2", "--mass", "100"],  # above H * area of the unit disk
        ["--radial", "--h", "3", "--H", "2", "--mass", "4"],
    ], ids=["h-above-H", "grid-3", "mass-outside-bracket", "radial-h-above-H"])
    def test_input_errors_exit_1(self, flags, capsys):
        rc = run(["solve", "--domain", "disk", "--grid", "33"] + flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @BAD_OPTIONS
    def test_bad_option_exits_1(self, flags, capsys):
        rc = run(["solve", "--domain", "disk", "--grid", "33",
                  "--h", "1", "--H", "2", "--mass", "4"] + flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_radial_solve(self, tmp_path):
        report = tmp_path / "radial.json"
        fields = tmp_path / "radial.csv"
        rc = run([
            "solve", "--domain", "disk", "--radial", "--nr", "256",
            "--h", "1", "--H", "2", "--mass", "4.6",
            "--out", str(report), "--fields", str(fields),
        ])
        assert rc == 0
        rep = json.loads(report.read_text())
        assert rep["radial"] is True
        assert rep["grid"] == 256
        with open(fields) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "u", "v", "rho"]
        assert all(float(r[1]) == 0.0 for r in rows[1:])

    def test_report_keys_radial(self, tmp_path):
        report = tmp_path / "radial.json"
        assert run(["solve", "--domain", "annulus", "--inner", "0.3", "--radial",
                    "--nr", "64", "--h", "1", "--H", "2", "--mass", "4",
                    "--out", str(report)]) == 0
        assert set(json.loads(report.read_text())) == STABLE_KEYS

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        args = [
            "solve", "--domain", "annulus", "--inner", "0.5", "--radius", "1",
            "--h", "1", "--H", "2", "--mass", "3.5", "--grid", "65",
            "--restarts", "3", "--seed", "7",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--fields", str(f1), "--out", str(tmp_path / "a.json")]) == 0
        assert run(args + ["--fields", str(f2), "--out", str(tmp_path / "b.json")]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        r1 = json.loads((tmp_path / "a.json").read_text())
        r2 = json.loads((tmp_path / "b.json").read_text())
        r1.pop("timestamp"), r2.pop("timestamp")
        assert r1 == r2


class TestVerify:
    def test_all_checks_pass_on_disk_fields(self, disk_solve, capsys):
        d, report, fields = disk_solve
        rc = run(["verify", "--report", str(report), "--fields", str(fields)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_one_line_per_check_in_table_order(self, disk_solve, capsys):
        d, report, fields = disk_solve
        assert run(["verify", "--report", str(report), "--fields", str(fields)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1].rstrip(":") for line in lines] == list(VALID_CHECKS)
        assert VALID_CHECKS == ("symmetry", "monotonicity", "moving-plane", "product",
                                "rigidity", "structure")

    @pytest.mark.parametrize("checks", ["", " , "], ids=["empty", "blank-items"])
    def test_empty_check_list_exits_1(self, disk_solve, checks, capsys):
        d, report, fields = disk_solve
        rc = run(["verify", "--report", str(report), "--fields", str(fields),
                  "--checks", checks])
        captured = capsys.readouterr()
        assert rc == 1
        assert "valid checks" in captured.err
        assert captured.out == ""

    # (column, text) put into one fields row: a non-finite u or v exited 2,
    # and a nan rho went on to the checks unnoticed
    @pytest.mark.parametrize("col,text", [(2, "nan"), (3, "inf"), (4, "nan"), (4, "-inf")],
                             ids=["u-nan", "v-inf", "rho-nan", "rho-neg-inf"])
    def test_non_finite_field_exits_1(self, disk_solve, tmp_path, col, text, capsys):
        d, report, fields = disk_solve
        lines = fields.read_text().splitlines()
        parts = lines[7].split(",")
        parts[col] = text
        lines[7] = ",".join(parts)
        bad = tmp_path / "nonfinite.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["verify", "--report", str(report), "--fields", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "row 8: non-finite value" in captured.err
        assert captured.out == ""

    # report edits that each exited 2
    @pytest.mark.parametrize("edit", [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "grid"}),
        lambda text: json.dumps(dict(json.loads(text), domain={"kind": "disk"})),
        lambda text: json.dumps(dict(json.loads(text), grid="abc")),
        lambda text: "[%s]" % text,
    ], ids=["not-json", "no-grid", "no-domain-params", "grid-abc", "list"])
    def test_unusable_report_exits_1(self, disk_solve, tmp_path, edit, capsys):
        d, report, fields = disk_solve
        bad = tmp_path / "bad.json"
        bad.write_text(edit(report.read_text()))
        rc = run(["verify", "--report", str(bad), "--fields", str(fields)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_corrupted_field_fails_monotonicity(self, disk_solve, tmp_path, capsys):
        d, report, fields = disk_solve
        lines = fields.read_text().splitlines()
        # flip the sign of one u value on the right half
        rep = json.loads(report.read_text())
        grid = pl.build_grid(pl.disk(1.0), rep["grid"])
        target = int(np.argmax(grid.node_x * (np.abs(grid.node_y) < grid.delta)))
        parts = lines[1 + target].split(",")
        parts[2] = "-" + parts[2]
        lines[1 + target] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["verify", "--report", str(report), "--fields", str(bad),
                  "--checks", "monotonicity"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "FAIL monotonicity" in out

    def test_check_that_cannot_be_taken_fails_and_the_rest_run(self, tmp_path, capsys):
        # doubling u at one node breaks the product check's precondition;
        # its DiagnosticsError stopped verify before product, rigidity, structure
        report, fields = tmp_path / "report.json", tmp_path / "fields.csv"
        assert run(["solve", "--domain", "disk", "--h", "1", "--H", "2", "--mass", "4.712389",
                    "--grid", "65", "--out", str(report), "--fields", str(fields)]) == 0
        grid = pl.build_grid(pl.disk(1.0), 65)
        target = int(np.argmin(np.hypot(grid.node_x - 0.6, grid.node_y)))
        lines = fields.read_text().splitlines()
        parts = lines[1 + target].split(",")
        parts[2] = "%.17g" % (2.0 * float(parts[2]))
        lines[1 + target] = ",".join(parts)
        fields.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = run(["verify", "--report", str(report), "--fields", str(fields)])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.out.splitlines()
        assert [line.split()[1].rstrip(":") for line in lines] == list(VALID_CHECKS)
        assert "FAIL product: precondition failed: " in captured.out
        assert captured.err == ""

    def test_unknown_check_lists_valid_names(self, disk_solve, capsys):
        d, report, fields = disk_solve
        rc = run(["verify", "--report", str(report), "--fields", str(fields),
                  "--checks", "wibble"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "symmetry" in err and "rigidity" in err

    @pytest.mark.parametrize("n_lambda", ["0", "7", "-1"])
    def test_too_few_planes_exits_1(self, disk_solve, n_lambda, capsys):
        d, report, fields = disk_solve
        rc = run(["verify", "--report", str(report), "--fields", str(fields),
                  "--checks", "product", "--n-lambda", n_lambda])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--n-lambda" in captured.err
        assert "PASS" not in captured.out

    def test_malformed_csv_reports_row(self, disk_solve, tmp_path, capsys):
        d, report, fields = disk_solve
        lines = fields.read_text().splitlines()
        lines[41] = lines[41].replace(",", ";", 1)
        bad = tmp_path / "mangled.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["verify", "--report", str(report), "--fields", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "row" in err


class TestSweep:
    def test_small_sweep_writes_monotone_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run([
            "sweep-annulus", "--inner-from", "0.3", "--inner-to", "0.5",
            "--steps", "3", "--grid", "65", "--nr", "128",
            "--restarts", "1", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        inner = [float(r["inner_radius"]) for r in rows]
        assert inner == sorted(inner)
        for r in rows:
            assert np.isfinite(float(r["theta_2d"]))
            assert np.isfinite(float(r["theta_radial"]))
            assert np.isfinite(float(r["rotation_asymmetry"]))
            assert r["beats_radial"] in ("True", "False")

    def test_header_line(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5",
                    "--steps", "1", "--grid", "33", "--nr", "64", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == (
            "inner_radius,theta_2d,theta_radial,rotation_asymmetry,beats_radial,termination")

    @BAD_OPTIONS
    def test_bad_option_exits_1(self, flags, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run([
            "sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5",
            "--steps", "1", "--grid", "33", "--nr", "64", "--out", str(out),
        ] + flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unconverged_row_exits_2(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run([
            "sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5",
            "--steps", "1", "--grid", "33", "--nr", "64", "--max-outer", "1",
            "--out", str(out),
        ])
        assert rc == 2
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["termination"] for r in rows] == ["max-outer"]

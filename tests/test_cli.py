import argparse
import csv
import dataclasses
import inspect
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import platelab as pl
from platelab import cli, geometry, optimizer
from platelab.cli import FIELD_COLUMNS, VALID_CHECKS, CliUsageError, main
from conftest import BAD_CENTRES, BAD_PARAMS, orbit_aligned_mass


def run(argv):
    return main(argv)


# keys of every report; the 2-D path adds restart_thetas and images
STABLE_KEYS = {"domain", "h", "H", "mass", "grid", "theta", "t", "outer_iterations",
               "termination", "timestamp", "solver_version", "radial"}

# one bad value per optimizer option; each exited 2 or was accepted before
# the options validated themselves
BAD_OPTIONS = pytest.mark.parametrize("flags", [
    ["--restarts", "-2"],
    ["--restarts", "2", "--seed", "-1"],  # exited 2 from numpy's SeedSequence
], ids=["restarts-neg", "seed-neg"])


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

    def test_out_into_a_missing_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "report.json"
        rc = run(["solve", "--domain", "square", "--h", "1", "--H", "2", "--mass", "1.2",
                  "--grid", "17", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("\n") == 1 and str(out) in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("solver, flags", [
        ("optimize", ["--domain", "disk", "--grid", "33"]),
        ("radial_optimize", ["--domain", "disk", "--radial", "--nr", "64"]),
    ], ids=["2d", "radial"])
    def test_fields_columns_parse_back_to_the_pair(self, tmp_path, monkeypatch, solver, flags):
        # both paths write their pair's grid nodes and fields through one call
        solve, pairs = getattr(cli, solver), []

        def keep(*args, **kwargs):
            out = solve(*args, **kwargs)
            pairs.append(out[0] if isinstance(out, tuple) else out)
            return out

        monkeypatch.setattr(cli, solver, keep)
        fields = tmp_path / "fields.csv"
        assert run(["solve", *flags, "--h", "1", "--H", "2", "--mass", "4.6",
                    "--out", str(tmp_path / "report.json"), "--fields", str(fields)]) == 0
        [pair] = pairs
        lines = fields.read_text().splitlines()
        assert lines[0] == ",".join(FIELD_COLUMNS)
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        want = (pair.grid.node_x, pair.grid.node_y, pair.u.values, pair.v.values,
                pair.rho.values)
        assert parsed.shape == (pair.grid.n, len(want))
        for column, values in zip(parsed.T, want):
            assert column.tobytes() == np.ascontiguousarray(values, dtype=float).tobytes()

    @pytest.mark.parametrize("flags", [["--radial", "--nr", "128"], ["--grid", "33"]],
                             ids=["radial", "2d"])
    def test_infinite_upper_bound_exits_1_without_a_report(self, tmp_path, flags, capsys):
        # the radial solve exited 0 with "H": Infinity in its report; the 2-D
        # solve exited 1 on the density's mass, the bathtub's residual being NaN
        report, fields = tmp_path / "report.json", tmp_path / "fields.csv"
        rc = run(["solve", "--domain", "disk", "--h", "1", "--H", "inf", "--mass", "5",
                  "--out", str(report), "--fields", str(fields)] + flags)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: H must be finite, got inf\n"
        assert captured.out == ""
        assert not report.exists() and not fields.exists()

    def test_radial_images_is_a_usage_error(self, tmp_path, capsys):
        # the radial branch never read --images: exit 0, no image written
        rc = run(["solve", "--domain", "disk", "--radial", "--nr", "64",
                  "--h", "1", "--H", "2", "--mass", "4.6", "--images", str(tmp_path / "img"),
                  "--out", str(tmp_path / "radial.json"), "--fields", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "--images" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--seed", "0"], ["--seed", "3"], ["--restarts", "2"],
                                       ["--restarts", "2", "--seed", "1"]],
                             ids=["seed-0", "seed-3", "restarts-2", "both"])
    def test_radial_restarts_or_seed_is_a_usage_error(self, tmp_path, flags, capsys):
        # the radial solve runs one start and read neither: exit 0 before
        rc = run(["solve", "--domain", "disk", "--radial", "--nr", "64",
                  "--h", "1", "--H", "2", "--mass", "4.6",
                  "--out", str(tmp_path / "radial.json")] + flags)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: --restarts and --seed need a 2-D solve; "
                                "the radial solve runs one start\n")
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_radial_one_restart_is_taken(self, tmp_path):
        assert run(["solve", "--domain", "disk", "--radial", "--nr", "64", "--restarts", "1",
                    "--h", "1", "--H", "2", "--mass", "4.6",
                    "--out", str(tmp_path / "radial.json")]) == 0

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


    def test_unseeded_multi_start_is_the_seed_0_run(self, tmp_path):
        # two unseeded runs drew fresh entropy: restart_thetas such as
        # [779.5118, 779.5378, 779.4538] and [779.5118, 779.4546, 779.5118]
        args = ["solve", "--domain", "annulus", "--inner", "0.5", "--grid", "33",
                "--h", "1", "--H", "2", "--mass", "3.6", "--restarts", "3"]
        reports = []
        for name, seed in (("a", []), ("b", []), ("seeded", ["--seed", "0"])):
            out = tmp_path / (name + ".json")
            assert run(args + seed + ["--out", str(out)]) == 0
            report = json.loads(out.read_text())
            report.pop("timestamp")
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]


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

    @pytest.mark.parametrize("checks, planes", [
        (",".join(VALID_CHECKS), [0, 1] + [0] * 16 + [1] * 16),
        ("product,moving-plane", [0] * 16 + [1] * 16),
        ("symmetry,rigidity,structure", [0, 1]),
    ], ids=["all", "plane-checks", "no-plane-check"])
    def test_one_reflection_per_plane(self, disk_solve, monkeypatch, checks, planes, capsys):
        # the symmetry check reflects once across each axis; the
        # moving-plane and product checks read one sweep, which reflects
        # u and v once per plane and is taken only when one of them runs
        d, report, fields = disk_solve
        calls = []
        stencil = geometry._mirror_stencil

        def counted(grid, dim, lam, nodes):
            calls.append(dim)
            return stencil(grid, dim, lam, nodes)

        monkeypatch.setattr(geometry, "_mirror_stencil", counted)
        assert run(["verify", "--report", str(report), "--fields", str(fields),
                    "--checks", checks]) == 0
        assert calls == planes

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

    # a grid that is not a JSON integer; "129", 129.0 and 129.7 (read as
    # 129) each passed every check before
    @pytest.mark.parametrize("grid", ["129", 129.0, 129.7, True],
                             ids=["string", "float", "fraction", "bool"])
    def test_grid_must_be_a_json_integer(self, disk_solve, tmp_path, grid, capsys):
        d, report, fields = disk_solve
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(report.read_text()), grid=grid)))
        rc = run(["verify", "--report", str(bad), "--fields", str(fields)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: %s: unusable report (ValueError: grid must be an "
                                "integer, got %r)\n" % (bad, grid))
        assert captured.out == ""

    # "abc" and null crashed the product check (exit 2, before rigidity and
    # structure printed); true was read as 1.0 and NaN passed
    @pytest.mark.parametrize("key", ["theta", "t"])
    @pytest.mark.parametrize("value", ["abc", None, True, math.nan, -math.inf],
                             ids=["string", "null", "bool", "nan", "minus-inf"])
    def test_theta_and_t_must_be_finite_json_numbers(self, disk_solve, tmp_path, key, value,
                                                     capsys):
        d, report, fields = disk_solve
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(report.read_text()), **{key: value})))
        rc = run(["verify", "--report", str(bad), "--fields", str(fields)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: %s: unusable report (ValueError: %s must be a finite "
                                "number, got %r)\n" % (bad, key, value))
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

    # a field that vanishes identically divided the symmetry, monotonicity,
    # moving-plane and rigidity measures by zero, and verify aborted; the
    # product check passed on u = 0, its tolerances being relative to u
    @pytest.mark.parametrize("col", [2, 3], ids=["u", "v"])
    def test_vanishing_field_fails_and_the_rest_run(self, disk_solve, tmp_path, col, capsys):
        d, report, fields = disk_solve
        lines = fields.read_text().splitlines()
        for k in range(1, len(lines)):
            parts = lines[k].split(",")
            parts[col] = "0"
            lines[k] = ",".join(parts)
        zeroed = tmp_path / "zeroed.csv"
        zeroed.write_text("\n".join(lines) + "\n")
        rc = run(["verify", "--report", str(report), "--fields", str(zeroed)])
        captured = capsys.readouterr()
        assert rc == 2
        out = captured.out.splitlines()
        assert [line.split()[1].rstrip(":") for line in out] == list(VALID_CHECKS)
        assert "FAIL moving-plane: %s vanishes identically" % "uv"[col - 2] in captured.out
        if col == 2:
            assert "FAIL product: u vanishes identically" in captured.out
        assert captured.err == ""

    def test_report_axes_are_not_read(self, tmp_path, capsys):
        # a report written before the symmetry axes became the centre
        # lines carries them as "axes"; an empty list made verify abort
        report, fields = tmp_path / "report.json", tmp_path / "fields.csv"
        assert run(["solve", "--domain", "square", "--grid", "33", "--h", "1", "--H", "3",
                    "--mass", "1.6", "--out", str(report), "--fields", str(fields)]) == 0
        rep = json.loads(report.read_text())
        assert set(rep["domain"]) == {"kind", "params", "center"}
        outputs = []
        for axes in (None, [[0, 0.5], [1, 0.5]], []):
            domain = dict(rep["domain"]) if axes is None else dict(rep["domain"], axes=axes)
            edited = tmp_path / "edited.json"
            edited.write_text(json.dumps(dict(rep, domain=domain)))
            capsys.readouterr()
            rc = run(["verify", "--report", str(edited), "--fields", str(fields)])
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append((rc, captured.out))
        assert outputs[0] == outputs[1] == outputs[2]
        lines = outputs[0][1].splitlines()
        assert [line.split()[1].rstrip(":") for line in lines] == list(VALID_CHECKS)

    def test_radial_report_exits_1(self, tmp_path, capsys):
        report, fields = tmp_path / "report.json", tmp_path / "fields.csv"
        assert run(["solve", "--domain", "disk", "--radial", "--nr", "64", "--h", "1",
                    "--H", "2", "--mass", "4.5", "--out", str(report),
                    "--fields", str(fields)]) == 0
        capsys.readouterr()
        assert run(["verify", "--report", str(report), "--fields", str(fields)]) == 1
        assert capsys.readouterr().err == "error: verify supports 2-D reports only\n"

    def test_product_defect_names_its_node(self, tmp_path, monkeypatch, capsys):
        # the diagnostics suite's straddling-threshold fixture on a lattice a
        # report names: a cap node beyond the first plane sits just above t,
        # its mirror at t, so the product check fails rather than raising
        spec = pl.unit_square()
        grid = pl.build_grid(spec, 17)
        u = np.sin(np.pi * grid.node_x) * np.sin(np.pi * grid.node_y)
        rho = pl.uniform_density(grid, 1.0, 2.0, 1.5 * grid.discrete_area)
        pair = pl.OptimalPair(u=pl.ScalarField(grid, u), v=pl.ScalarField(grid, u), rho=rho,
                              theta=1.0, t=0.5)
        monkeypatch.setattr(pl.diagnostics, "N_LAMBDAS", 8)
        lam = pl.diagnostics.plane_positions(pair, 0)[0]
        nodes, (ur,) = geometry.reflect_cap(grid, [u], 0, lam)
        k = int(np.flatnonzero(grid.node_x[nodes] > lam + grid.delta)[0])
        node = int(nodes[k])
        u[node] = ur[k] * (1.0 + 1e-12)
        report, fields = tmp_path / "report.json", tmp_path / "fields.csv"
        report.write_text(json.dumps({"domain": spec.to_dict(), "grid": 17, "h": 1.0,
                                      "H": 2.0, "mass": rho.M, "theta": 1.0, "t": ur[k]}))
        cli._write_fields_csv(fields, grid.node_x, grid.node_y, u, u, rho.values)
        rc = run(["verify", "--report", str(report), "--fields", str(fields),
                  "--checks", "product"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out.startswith("FAIL product: defect -")
        assert captured.out.endswith(" at node %d\n" % node)
        assert captured.err == ""

    def test_unknown_check_lists_valid_names(self, disk_solve, capsys):
        d, report, fields = disk_solve
        rc = run(["verify", "--report", str(report), "--fields", str(fields),
                  "--checks", "wibble"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "symmetry" in err and "rigidity" in err

    def test_plane_count_default_is_diagnostics_own(self, disk_solve, monkeypatch, capsys):
        # verify sweeps diagnostics.N_LAMBDAS planes, read when it runs:
        # one reflection per plane in each direction; 5 is below the floor
        # of 8 that --n-lambda had
        d, report, fields = disk_solve
        calls = []
        stencil = geometry._mirror_stencil
        monkeypatch.setattr(geometry, "_mirror_stencil", lambda grid, dim, lam, nodes: (
            calls.append(dim) or stencil(grid, dim, lam, nodes)))
        for n_lambda in (5, 33):
            calls.clear()
            monkeypatch.setattr(pl.diagnostics, "N_LAMBDAS", n_lambda)
            assert run(["verify", "--report", str(report), "--fields", str(fields),
                        "--checks", "moving-plane"]) == 0
            assert calls == [0] * n_lambda + [1] * n_lambda

    @pytest.mark.parametrize("argv", [
        ["solve", "--domain", "disk", "--h", "1", "--H", "2", "--mass", "4"],
        ["sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5", "--steps", "1",
         "--out", "o"],
    ], ids=["solve", "sweep-annulus"])
    def test_radial_cell_default_is_radial_optimizes_own(self, argv):
        n_r = inspect.signature(pl.radial_optimize).parameters["n_r"].default
        assert cli._build_parser().parse_args(argv).nr == n_r

    @pytest.mark.parametrize("argv", [
        ["solve", "--domain", "disk", "--h", "1", "--H", "2", "--mass", "4"],
        ["sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5", "--steps", "1",
         "--out", "o"],
    ], ids=["solve", "sweep-annulus"])
    def test_start_defaults_are_optimizes_own(self, argv, monkeypatch, tmp_path):
        # solve's --seed defaulted to None and sweep-annulus's to 0
        params = inspect.signature(pl.optimize).parameters
        args = cli._build_parser().parse_args(argv)
        assert args.restarts == params["restarts"].default
        if argv[0] == "sweep-annulus":
            assert args.seed == params["seed"].default
            return
        # solve keeps None to tell whether --seed was given, and passes optimize's own
        assert args.seed is None
        calls = []
        monkeypatch.setattr(cli, "optimize", lambda *a: calls.append(a) or optimizer.optimize(*a))
        assert run(argv + ["--grid", "17", "--out", str(tmp_path / "r.json")]) == 0
        assert calls[0][-2:] == (params["restarts"].default, params["seed"].default)

    def test_malformed_csv_reports_row(self, disk_solve, tmp_path, capsys):
        d, report, fields = disk_solve
        lines = fields.read_text().splitlines()
        lines[41] = lines[41].replace(",", ";", 1)
        bad = tmp_path / "mangled.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["verify", "--report", str(report), "--fields", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "mangled.csv row 42: expected 5 columns" in err

    # each message as the csv.reader loader gave it
    @pytest.mark.parametrize("edit,message", [
        (lambda ls: ls[:cli.FIELDS_BLOCK + 17]
         + [ls[cli.FIELDS_BLOCK + 17].replace(",", ",1.2.", 1)] + ls[cli.FIELDS_BLOCK + 18:],
         "row %d: malformed float" % (cli.FIELDS_BLOCK + 18)),
        (lambda ls: ls[:100] + [""] + ls[100:], "row 101: expected 5 columns"),
        (lambda ls: ls + ls[-1:], "has {n1} rows but the grid has {n} interior nodes"),
        (lambda ls: ls[:-1], "has {n_1} rows but the grid has {n} interior nodes"),
        (lambda ls: ls[:1], "has 0 rows but the grid has {n} interior nodes"),
    ], ids=["float-beyond-first-block", "blank-line", "extra-row", "missing-row", "header-only"])
    def test_bad_fields_name_the_row(self, disk_solve, tmp_path, edit, message, capsys):
        d, report, fields = disk_solve
        lines = fields.read_text().splitlines()
        n = len(lines) - 1
        assert n > cli.FIELDS_BLOCK + 18
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(edit(lines)) + "\n")
        rc = run(["verify", "--report", str(report), "--fields", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: %s %s\n" % (bad, message.format(n=n, n1=n + 1, n_1=n - 1))
        assert captured.out == ""

    def test_crlf_fields_verify_identically(self, disk_solve, tmp_path, capsys):
        d, report, fields = disk_solve
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(fields.read_bytes().replace(b"\n", b"\r\n"))
        outputs = []
        for path in (fields, crlf):
            rc = run(["verify", "--report", str(report), "--fields", str(path)])
            outputs.append((rc, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    # a byte that is not UTF-8 blamed the report: "unusable report (UnicodeDecodeError ...)"
    @pytest.mark.parametrize("line, message", [
        (9, "row 10: malformed float"),
        (0, "row 1: expected header x,y,u,v,rho"),
    ], ids=["row", "header"])
    def test_non_utf8_byte_names_the_fields_row(self, disk_solve, tmp_path, line, message,
                                                capsys):
        d, report, fields = disk_solve
        lines = fields.read_bytes().split(b"\n")
        lines[line] = lines[line][:3] + b"\xff" + lines[line][3:]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        rc = run(["verify", "--report", str(report), "--fields", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: %s %s\n" % (bad, message)
        assert captured.out == ""

    # a file that cannot be opened exited 2, the code of a failed check
    @pytest.mark.parametrize("flag", ["--report", "--fields"])
    def test_missing_input_file_exits_1(self, disk_solve, tmp_path, flag, capsys):
        d, report, fields = disk_solve
        paths = {"--report": str(report), "--fields": str(fields)}
        paths[flag] = missing = str(tmp_path / "missing")
        rc = run(["verify"] + [arg for item in paths.items() for arg in item])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("\n") == 1 and missing in captured.err
        assert captured.out == ""


# References: the row-loop writer and the csv.reader loader, verbatim.
def _fmt(v):
    return "%.17g" % float(v)


def _row_loop_write_fields_csv(path, *columns):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(FIELD_COLUMNS) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(c) for c in row) + "\n")


def _csv_reader_load_fields_csv(path, grid):
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(FIELD_COLUMNS):
            raise CliUsageError("error: %s row 1: expected header %s"
                                % (path, ",".join(FIELD_COLUMNS)))
        for k, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise CliUsageError("error: %s row %d: expected 5 columns" % (path, k))
            try:
                values.extend([float(c) for c in row])
            except ValueError:
                raise CliUsageError("error: %s row %d: malformed float" % (path, k))
    data = np.array(values).reshape(-1, 5)
    if len(data) != grid.n:
        raise CliUsageError(
            "error: %s has %d rows but the grid has %d interior nodes"
            % (path, len(data), grid.n)
        )
    tol = 1e-9 * grid.delta
    for bad, what in (
        (~np.isfinite(data).all(axis=1), "non-finite value"),
        ((np.abs(data[:, 0] - grid.node_x) > tol) | (np.abs(data[:, 1] - grid.node_y) > tol),
         "coordinates do not match the grid"),
    ):
        if bad.any():
            raise CliUsageError("error: %s row %d: %s" % (path, np.argmax(bad) + 2, what))
    return data[:, 2], data[:, 3], data[:, 4]


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
                  -1.7976931348623157e308, np.nan, np.inf, -np.inf, 1.0 / 3.0, -1e-300,
                  123456789.0, 0.1]


def _radial_columns(rows, rng):
    """The ``solve --radial --fields`` columns: r, zeros, u, v and rho."""
    r = np.cumsum(rng.uniform(0.5, 1.5, rows)) / max(rows, 1)
    return [r, np.zeros(rows), rng.normal(size=rows), rng.normal(size=rows),
            rng.choice([1.0, 2.0, 1.2345678901234567], rows)]


def _signed_columns(rows, rng):
    """Columns of 0.0 and -0.0, which compare equal but print apart, and of
    NaNs of both signs."""
    pools = [[-0.0, 0.0], [np.nan, -np.nan], [-0.0, 0.0, np.nan, -np.nan]]
    return [rng.permutation(np.resize(pools[k % 3], rows)) for k in range(len(FIELD_COLUMNS))]


class TestFieldsFiles:
    """The block writer and the two-path reader against the row-loop writer
    and the csv.reader loader they replaced."""

    @pytest.mark.parametrize("rows", [0, 1, cli.FIELDS_BLOCK - 1, cli.FIELDS_BLOCK,
                                      2 * cli.FIELDS_BLOCK + 3])
    def test_writer_bytes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        pool = np.concatenate([SPECIAL_VALUES,
                               np.ldexp(rng.normal(size=64), rng.integers(-1070, 1020, 64))])
        columns = [rng.choice(pool, rows) for _ in FIELD_COLUMNS]
        columns[0][: len(SPECIAL_VALUES)] = SPECIAL_VALUES[:rows]
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        cli._write_fields_csv(ours, *columns)
        _row_loop_write_fields_csv(theirs, *columns)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.fixture(scope="class")
    def grid_and_text(self):
        grid = pl.build_grid(pl.disk(1.0), 129)
        assert grid.n > 3 * cli.FIELDS_BLOCK
        rng = np.random.default_rng(5)
        columns = [grid.node_x, grid.node_y] + [rng.normal(size=grid.n) for _ in range(3)]
        columns[2][:4] = [-0.0, 5e-324, 1e308, -2.5e-310]
        lines = [",".join(_fmt(c) for c in row) for row in zip(*columns)]
        return grid, ["x,y,u,v,rho"] + lines

    # (edit of the lines, line end, final line end)
    @pytest.mark.parametrize("edit,end,final", [
        (lambda ls: ls, "\n", "\n"),
        (lambda ls: ls, "\r\n", "\r\n"),
        (lambda ls: ls, "\r", "\r"),
        (lambda ls: ls, "\n", ""),
        (lambda ls: [ls[0]] + [" %s ,\t%s" % tuple(line.split(",", 1)) for line in ls[1:]],
         "\n", "\n"),
        (lambda ls: ls + [""], "\n", "\n"),
        (lambda ls: ls[:-1], "\n", "\n"),
        (lambda ls: ls[:1], "\n", "\n"),
        (lambda ls: [], "\n", ""),
        (lambda ls: ["x,y,u,v"] + ls[1:], "\n", "\n"),
        (lambda ls: ls[:9000] + [ls[9000] + ","] + ls[9001:], "\n", "\n"),
        (lambda ls: ls[:9000] + [ls[9000].replace(",", ",x", 1)] + ls[9001:], "\n", "\n"),
        (lambda ls: ls[:20] + ["1,2,3", "1,2,3,4,5,6,7"] + ls[22:], "\n", "\n"),
        (lambda ls: ls[:20] + [ls[20].replace(",", ",zz", 1)] + ls[21:30] + ["1,2"] + ls[31:],
         "\n", "\n"),
        (lambda ls: ls[:20] + ["1,2"] + ls[21:30] + [ls[30].replace(",", ",zz", 1)] + ls[31:],
         "\n", "\n"),
        (lambda ls: ls + ["1,2"], "\n", "\n"),
        (lambda ls: ls[:12] + [ls[12].replace(",", ",1_0", 1)] + ls[13:], "\n", "\n"),
        (lambda ls: ls[:12] + [ls[12] + "0"] + ls[13:], "\n", "\n"),
        (lambda ls: ls[:12] + ["7" + ls[12]] + ls[13:], "\n", "\n"),
        (lambda ls: ls[:4099] + [ls[4099].rsplit(",", 1)[0] + ",nan"] + ls[4100:], "\n", "\n"),
        (lambda ls: ls[:4099] + [ls[4099].rsplit(",", 1)[0] + ",1e999"] + ls[4100:], "\n", "\n"),
        (lambda ls: ls[:12] + [ls[12].replace(",", "\x1c,", 1)] + ls[13:], "\n", "\n"),
        (lambda ls: ls[:12] + [ls[12] + "\x1f"] + ls[13:], "\n", "\n"),
        (lambda ls: ls[:12] + [ls[12].rsplit(",", 1)[0] + ",1.5#x"] + ls[13:], "\n", "\n"),
        (lambda ls: ls[:30] + [""] + ls[31:], "\n", "\n"),
        (lambda ls: ls[:30] + [" \t "] + ls[31:], "\n", "\n"),
        (lambda ls: ls[:12] + [ls[12].rsplit(",", 1)[0] + ",\u0661\u0662"] + ls[13:], "\n", "\n"),
    ], ids=["lf", "crlf", "cr", "no-final-newline", "whitespace", "trailing-blank-line",
            "missing-row", "header-only", "empty", "bad-header", "six-columns", "bad-float",
            "ragged-pair", "float-before-columns", "columns-before-float", "extra-short-row",
            "underscore", "last-digit", "coordinates", "nan", "overflow", "separator-x1c",
            "separator-x1f", "hash", "blank-row", "whitespace-row", "arabic-indic-digits"])
    def test_reader_matches_csv_reader(self, grid_and_text, tmp_path, edit, end, final):
        grid, lines = grid_and_text
        lines = edit(lines)
        path = tmp_path / "fields.csv"
        path.write_bytes((end.join(lines) + final if lines else "").encode())
        outcomes = []
        for load in (cli._load_fields_csv, _csv_reader_load_fields_csv):
            try:
                outcomes.append(tuple(col.tobytes() for col in load(path, grid)))
            except CliUsageError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_c_parser_takes_only_the_writers_own_files(self, disk_solve, grid_and_text,
                                                       tmp_path, monkeypatch, capsys):
        class BlockParser(Exception):
            pass

        def refuse(path, grid):
            raise BlockParser

        monkeypatch.setattr(cli, "_parse_fields_csv", refuse)
        d, report, fields = disk_solve
        assert run(["verify", "--report", str(report), "--fields", str(fields)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        grid, lines = grid_and_text
        for edit, end in (
            (lambda ls: ls, "\r\n"),
            (lambda ls: ls[:12] + [ls[12].replace(",", ",1_0", 1)] + ls[13:], "\n"),
            (lambda ls: ls[:12] + [ls[12].replace(",", "\x1c,", 1)] + ls[13:], "\n"),
        ):
            path = tmp_path / "fields.csv"
            path.write_bytes((end.join(edit(lines)) + end).encode())
            with pytest.raises(BlockParser):
                cli._load_fields_csv(path, grid)

    @pytest.fixture(scope="class")
    def small_text(self, tmp_path_factory):
        grid = pl.build_grid(pl.disk(1.0), 9)
        rng = np.random.default_rng(3)
        columns = [grid.node_x, grid.node_y, rng.normal(size=grid.n),
                   np.ldexp(rng.normal(size=grid.n), rng.integers(-30, 30, grid.n)),
                   rng.choice([1.0, 2.0, -0.0], grid.n)]
        text = "\n".join(["x,y,u,v,rho"] + [",".join(_fmt(c) for c in row)
                                             for row in zip(*columns)]) + "\n"
        return grid, text, tmp_path_factory.mktemp("edits") / "fields.csv"

    # each edit: at a cell's end or anywhere, an offset, delete / replace /
    # insert, and a character
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(edits=st.lists(st.tuples(st.booleans(), st.integers(0, 4000), st.integers(0, 2),
                                    st.sampled_from(",#_ \t\r\n\x1c\x1f\xa0\u0661eE+-.naif")),
                          min_size=1, max_size=4))
    def test_c_parser_and_row_loop_agree_on_edits(self, small_text, edits):
        grid, text, path = small_text
        for at_end, at, how, char in edits:
            ends = [k for k, c in enumerate(text) if c in ",\n"] if at_end else []
            at = ends[at % len(ends)] if ends else at % (len(text) + 1)
            text = text[:at] + char * (how > 0) + text[at + (how < 2):]
        path.write_bytes(text.encode())
        outcomes = []
        for own in (cli._read_own_fields_csv, lambda path, grid: None):
            with mock.patch.object(cli, "_read_own_fields_csv", own):
                try:
                    outcomes.append(tuple(col.tobytes() for col in cli._load_fields_csv(path, grid)))
                except CliUsageError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    # the last count is one row past the table threshold of a four-pattern column
    @pytest.mark.parametrize("rows", [0, 1, cli.FIELDS_BLOCK - 1, cli.FIELDS_BLOCK + 1,
                                      4 * cli._TABLE_ROWS + 1])
    @pytest.mark.parametrize("make", [_radial_columns, _signed_columns],
                             ids=["radial", "signed-zeros-and-nans"])
    def test_tabled_writer_bytes(self, tmp_path, rows, make):
        columns = make(rows, np.random.default_rng(rows))
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        cli._write_fields_csv(ours, *columns)
        _row_loop_write_fields_csv(theirs, *columns)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_round_trip_memory_on_the_disk_at_257(self, tmp_path):
        grid = pl.build_grid(pl.disk(1.0), 257)
        rng = np.random.default_rng(11)
        columns = (grid.node_x, grid.node_y, rng.normal(size=grid.n), rng.normal(size=grid.n),
                   rng.choice([1.0, 2.0, 1.5], grid.n))
        path, crlf = tmp_path / "fields.csv", tmp_path / "crlf.csv"
        cli._write_fields_csv(crlf, *columns)
        crlf.write_bytes(crlf.read_bytes().replace(b"\n", b"\r\n"))  # read by the row loop
        peaks = []
        tracemalloc.start()
        try:
            for call in (lambda: cli._write_fields_csv(path, *columns),
                         lambda: cli._load_fields_csv(path, grid),
                         lambda: cli._load_fields_csv(crlf, grid)):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 5e6, peaks


def _solve_parser():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["solve"]


def _flags(kind, params):
    """The ``solve`` flags naming ``params`` of ``kind``."""
    names = ["radius" if n == "outer" else n for n in geometry.PARAMS[kind]]
    return ["--%s=%r" % (n.replace("_", "-"), v) for n, v in zip(names, params)]


# matrix cases the domain flags can express: one float per parameter
AS_FLAGS = [case for case in BAD_PARAMS
            if isinstance(case[2], tuple) and len(case[2]) == len(geometry.PARAMS[case[1]])
            and all(type(v) is float for v in case[2])]


class TestDomainFlags:
    """The domain flags are read off geometry's shape table, and every
    entry point of the CLI takes its domain through the one check."""

    def test_domain_choices_are_square_then_the_table(self):
        domain = next(a for a in _solve_parser()._actions if a.dest == "domain")
        assert domain.choices == ["square", *geometry._SHAPES]
        assert domain.choices == ["square", "disk", "annulus", "ellipse", "rectangle", "stadium"]

    def test_one_flag_per_parameter_without_a_default(self):
        actions = {a.dest: a for a in _solve_parser()._actions}
        names = {"radius" if n == "outer" else n for ns in geometry.PARAMS.values() for n in ns}
        assert names <= set(actions)
        assert all(actions[n].default is None and actions[n].type is float for n in names)

    @pytest.mark.parametrize("kind", ["square", *geometry.PARAMS])
    def test_no_parameter_flags_build_the_default_spec(self, kind):
        argv = ["solve", "--domain", kind, "--h", "1", "--H", "2", "--mass", "1"]
        if kind == "annulus":  # the one parameter without a default
            argv += ["--inner", "0.4"]
            want = geometry.annulus(0.4)
        else:
            want = geometry.unit_square() if kind == "square" else getattr(geometry, kind)()
        assert cli._domain_from_args(cli._build_parser().parse_args(argv)) == want

    @pytest.mark.parametrize("kind", list(geometry.PARAMS))
    def test_flags_fill_params_in_table_order(self, kind):
        params = (0.25, 0.75)[-len(geometry.PARAMS[kind]):]
        argv = ["solve", "--domain", kind, "--h", "1", "--H", "2", "--mass", "1"]
        args = cli._build_parser().parse_args(argv + _flags(kind, params))
        assert cli._domain_from_args(args) == getattr(geometry, kind)(*params)

    @pytest.mark.parametrize("radial", [False, True], ids=["2d", "radial"])
    @pytest.mark.parametrize("kind", ["square", *geometry.PARAMS])
    def test_foreign_shape_flags_exit_1(self, kind, radial, capsys):
        # each was dropped without a word: a 2-D solve ran on the kind's own
        # parameters and exited 0 (the square's report read params [1.0, 1.0])
        shape_flags = {"radius" if n == "outer" else n for ns in geometry.PARAMS.values()
                       for n in ns}
        own = ["radius" if n == "outer" else n for n in geometry.PARAMS.get(kind, ())]
        for flag in sorted(shape_flags - set(own)):
            rc = run(["solve", "--domain", kind, "--h", "1", "--H", "2", "--mass", "1",
                      "--grid", "33", "--nr", "64"] + ["--radial"] * radial
                     + ["--inner", "0.3"] * (kind == "annulus")
                     + ["--%s" % flag.replace("_", "-"), "0.5"])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.err == "error: --%s does not apply to --domain %s\n" % (
                flag.replace("_", "-"), kind)
            assert captured.out == ""

    @pytest.mark.parametrize("radial", [False, True], ids=["2d", "radial"])
    @pytest.mark.parametrize("case, kind, params, message", AS_FLAGS,
                             ids=[case[0] for case in AS_FLAGS])
    def test_bad_parameter_flags_exit_1(self, case, kind, params, message, radial, capsys):
        rc = run(["solve", "--domain", kind, "--h", "1", "--H", "2", "--mass", "4",
                  "--grid", "33", "--nr", "64"] + ["--radial"] * radial + _flags(kind, params))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: %s\n" % message
        assert captured.out == ""

    def test_non_numeric_flag_is_a_usage_error(self, capsys):
        rc = run(["solve", "--domain", "disk", "--radius", "one", "--h", "1", "--H", "2",
                  "--mass", "4"])
        assert rc == 1
        assert "--radius: invalid float value: 'one'" in capsys.readouterr().err

    @staticmethod
    def _verify(tmp_path, domain):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"domain": domain, "grid": 33, "h": 1.0, "H": 2.0,
                                      "mass": 4.0, "theta": 1.0, "t": 1.0}))
        # no fields file: a domain that passed would fail opening it, exit 1 naming none.csv
        return run(["verify", "--report", str(report), "--fields", str(tmp_path / "none.csv")])

    @pytest.mark.parametrize("case, kind, params, message", BAD_PARAMS,
                             ids=[case[0] for case in BAD_PARAMS])
    def test_verify_rejects_report_params(self, tmp_path, case, kind, params, message, capsys):
        assert self._verify(tmp_path, {"kind": kind, "params": params}) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s" % message) and err.count("\n") == 1

    @pytest.mark.parametrize("case, center", BAD_CENTRES, ids=[case[0] for case in BAD_CENTRES])
    def test_verify_rejects_report_centre(self, tmp_path, case, center, capsys):
        assert self._verify(tmp_path, {"kind": "disk", "params": [1.0], "center": center}) == 1
        # JSON reads a tuple back as a list
        read = list(center) if isinstance(center, tuple) else center
        assert capsys.readouterr().err == (
            "error: center must be a finite (x, y) pair, got %r\n" % (read,))

    def test_verify_takes_a_good_domain_to_the_fields(self, tmp_path, capsys):
        assert self._verify(tmp_path, {"kind": "disk", "params": [1.0], "center": [0, 0]}) == 1
        assert "none.csv" in capsys.readouterr().err


# the annulus a = 0.5's area and its ring sum at 64 cells
_AREA = pl.annulus(0.5, 1.0).area()
_RINGS = pl.radial.radial_grid("annulus", (0.5, 1.0), 64).discrete_area


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

    def test_no_steps_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5",
                    "--steps", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --steps must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        # the rows a = 0.5 and 0.75 were solved before a = 1.0 failed
        (["--inner-from", "0.5", "--inner-to", "1.0", "--steps", "3", "--grid", "33"],
         "annulus needs inner < outer radius"),
        # the domain admits a = 0.6's mass, its lattice at grid 33 does not
        (["--inner-from", "0.3", "--inner-to", "0.6", "--steps", "2", "--mass-fraction", "0.96",
          "--grid", "33"], "mass 3.940813824663037 outside admissible bracket [1.953125, 3.90625]"),
        # the lattice at grid 65 admits the mass, the 64 rings do not
        (["--inner-from", "0.5", "--inner-to", "0.5", "--steps", "1", "--mass-fraction", "0.98",
          "--grid", "65"], "mass %r outside admissible bracket [%r, %r]" % (
              _AREA + 0.98 * _AREA, _RINGS, 2.0 * _RINGS)),
    ], ids=["domain", "lattice", "rings"])
    def test_every_row_is_checked_before_the_first_solve(self, tmp_path, monkeypatch, capsys,
                                                         flags, message):
        calls = []
        monkeypatch.setattr(cli, "optimize", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(cli, "radial_optimize", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "sweep.csv"
        rc = run(["sweep-annulus", *flags, "--nr", "64", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert calls == []
        assert not out.exists()

    def test_header_line(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5",
                    "--steps", "1", "--grid", "33", "--nr", "64", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == (
            "inner_radius,theta_2d,theta_radial,rotation_asymmetry,termination,"
            "termination_radial")

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

    def test_unconverged_row_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_OUTER", 1)
        out = tmp_path / "sweep.csv"
        rc = run([
            "sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5",
            "--steps", "1", "--grid", "33", "--nr", "64", "--out", str(out),
        ])
        assert rc == 2
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["termination"] for r in rows] == ["max-outer"]
        assert [r["termination_radial"] for r in rows] == ["max-outer"]

    def test_one_step_over_two_radii_exits_1(self, tmp_path, capsys):
        # wrote the one row at --inner-from and exited 0, --inner-to dropped
        out = tmp_path / "sweep.csv"
        rc = run(["sweep-annulus", "--inner-from", "0.3", "--inner-to", "0.6", "--steps", "1",
                  "--grid", "33", "--nr", "64", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --steps 1 sweeps one radius; --inner-to must equal --inner-from\n")
        assert not out.exists()

    def test_sweep_reaches_thin_annuli(self, tmp_path):
        # exited 2 with "Krylov eigenvector is not strictly positive" on the
        # a = 0.9 row and wrote no CSV
        out = tmp_path / "sweep.csv"
        assert run(["sweep-annulus", "--inner-from", "0.85", "--inner-to", "0.9", "--steps", "2",
                    "--grid", "97", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["inner_radius"]) for r in rows] == [0.85, 0.9]

    def test_a_row_that_raises_ends_the_sweep(self, tmp_path, monkeypatch, capsys):
        solve = cli.optimize
        calls = []

        def second_raises(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise pl.eigensolver.EigenError("planted")
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "optimize", second_raises)
        out = tmp_path / "sweep.csv"
        assert run(["sweep-annulus", "--inner-from", "0.3", "--inner-to", "0.6", "--steps", "3",
                    "--grid", "33", "--nr", "64", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: planted\n"
        assert len(calls) == 2  # the third row is not solved
        assert not out.exists()

    def test_unconverged_radial_solve_exits_2(self, tmp_path, monkeypatch):
        # each solve has its termination column, and the exit code reads both,
        # so an unconverged theta_radial is not passed as converged
        solve = cli.radial_optimize
        monkeypatch.setattr(cli, "radial_optimize", lambda *args, **kwargs: dataclasses.replace(
            solve(*args, **kwargs), termination="max-outer"))
        out = tmp_path / "sweep.csv"
        assert run(["sweep-annulus", "--inner-from", "0.5", "--inner-to", "0.5", "--steps", "1",
                    "--grid", "33", "--nr", "64", "--out", str(out)]) == 2
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["termination"] for r in rows] == ["rho-fixed"]
        assert [r["termination_radial"] for r in rows] == ["max-outer"]

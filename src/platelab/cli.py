"""Command-line front end: solve, verify, sweep-annulus.

Reports go to JSON (stable keys: domain, h, H, mass, grid, theta, t,
outer_iterations, termination, timestamp, solver_version), fields to CSV
with header ``x,y,u,v,rho`` and 17-significant-digit floats (bit-exact
round trip), and for 2-D solves optional 8-bit PGM images of u and rho
with the gray scale recorded in the report.

Exit codes: 0 converged / all checks pass, 1 usage or input error,
2 non-convergence or failed checks; a check that cannot be taken on the
fields fails, and the remaining checks still run.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__, diagnostics, geometry
from .fields import ScalarField
from .geometry import DomainSpec, GeometryError, _integer, build_grid
from .optimizer import OptimizeError, OptimizeOptions, OptimalPair, optimize
from .radial import RadialError, radial_grid, radial_optimize
from .rearrange import DensityField, RearrangeError, _check_bracket

SYMMETRY_TOL = 1e-6
MONOTONICITY_TOL = 1e-10
MOVING_PLANE_TOL = 1e-8
RIGIDITY_CV_MAX = 0.01
CONVERGED = ("theta-converged", "rho-fixed")
INPUT_ERRORS = (GeometryError, OptimizeError, RearrangeError, RadialError)  # bad input values
FIELD_COLUMNS = ("x", "y", "u", "v", "rho")
FIELD_ROW = ",".join(["%.17g"] * len(FIELD_COLUMNS)) + "\n"
FIELDS_BLOCK = 4096  # rows formatted or parsed at a time
RADIAL_CELLS = inspect.signature(radial_optimize).parameters["n_r"].default
SWEEP_COLUMNS = ("inner_radius", "theta_2d", "theta_radial", "rotation_asymmetry",
                 "beats_radial", "termination")


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError("%serror: %s" % (self.format_usage(), message))


def _build_parser():
    p = _Parser(prog="plate-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="optimize a density/deflection pair")
    _add_domain_flags(ps)
    ps.add_argument("--h", type=float, required=True, help="lower density bound")
    ps.add_argument("--H", dest="Hd", type=float, required=True, help="upper density bound")
    ps.add_argument("--mass", type=float, required=True, help="total density mass")
    _add_solver_flags(ps, grid=129, seed=None)
    ps.add_argument("--radial", action="store_true", help="use the 1-D radial solver")
    ps.add_argument("--out", default=None, help="JSON report path")
    ps.add_argument("--fields", default=None, help="CSV fields path")
    ps.add_argument("--images", default=None, help="PGM image path prefix")

    pv = sub.add_parser("verify", help="re-run diagnostics on exported fields")
    pv.add_argument("--report", required=True, help="JSON report from solve")
    pv.add_argument("--fields", required=True, help="CSV fields from solve")
    pv.add_argument("--checks", default=",".join(VALID_CHECKS))
    pv.add_argument("--n-lambda", type=int, default=diagnostics.N_LAMBDAS)

    pw = sub.add_parser("sweep-annulus", help="inner-radius sweep with restarts")
    pw.add_argument("--inner-from", type=float, required=True)
    pw.add_argument("--inner-to", type=float, required=True)
    pw.add_argument("--steps", type=int, required=True)
    pw.add_argument("--h", type=float, default=1.0)
    pw.add_argument("--H", dest="Hd", type=float, default=2.0)
    pw.add_argument("--mass-fraction", type=float, default=0.5,
                    help="position of the mass inside [h*area, H*area]")
    _add_solver_flags(pw, grid=193, seed=0)
    pw.add_argument("--out", required=True, help="CSV output path")
    return p


def _add_solver_flags(ps, grid, seed):
    """Grid sizes and optimizer options; the radial grid's and the
    options' defaults are ``radial_optimize``'s and ``OptimizeOptions``'s own."""
    opts = OptimizeOptions()
    ps.add_argument("--grid", type=int, default=grid, help="nodes per side (boundary inclusive)")
    ps.add_argument("--nr", type=int, default=RADIAL_CELLS, help="radial grid cells")
    ps.add_argument("--tol", type=float, default=opts.eig_tol, help="eigensolver tolerance")
    ps.add_argument("--theta-tol", type=float, default=opts.theta_tol)
    ps.add_argument("--max-outer", type=int, default=opts.max_outer)
    ps.add_argument("--restarts", type=int, default=opts.restarts)
    ps.add_argument("--seed", type=int, default=seed)


def _options(args, seed):
    return OptimizeOptions(
        theta_tol=args.theta_tol,
        max_outer=args.max_outer,
        eig_tol=args.tol,
        restarts=args.restarts,
        seed=seed,
    )


_FLAG_OF = {"outer": "radius"}  # shape parameters whose flag is not their name
_FLAG_HELP = {"radius": "disk/annulus outer radius", "inner": "annulus inner radius",
              "length": "stadium straight length"}


def _add_domain_flags(ps):
    ps.add_argument("--domain", required=True, choices=["square", *geometry.PARAMS])
    for flag in dict.fromkeys(_FLAG_OF.get(n, n) for ns in geometry.PARAMS.values() for n in ns):
        ps.add_argument("--" + flag.replace("_", "-"), type=float, help=_FLAG_HELP.get(flag))


def _domain_from_args(args):
    if args.domain == "square":
        return geometry.unit_square()
    build = getattr(geometry, args.domain)  # the kind's constructor holds the defaults
    given = {n: getattr(args, _FLAG_OF.get(n, n)) for n in geometry.PARAMS[args.domain]}
    for name, p in inspect.signature(build).parameters.items():
        if p.default is p.empty and given[name] is None:
            raise CliUsageError("error: --%s is required for --domain %s"
                                % (_FLAG_OF.get(name, name).replace("_", "-"), args.domain))
    return build(**{name: v for name, v in given.items() if v is not None})


def _fmt(v):
    return "%.17g" % float(v)


def _write_fields_csv(path, *columns):
    data = np.column_stack(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(FIELD_COLUMNS) + "\n")
        for start in range(0, len(data), FIELDS_BLOCK):
            block = data[start : start + FIELDS_BLOCK]
            fh.write(FIELD_ROW * len(block) % tuple(block.ravel().tolist()))


def _write_pgm(path, grid, values):
    """8-bit grayscale of a node field on the lattice; returns its report
    entry: the file and the gray scale's (min, max)."""
    lo = float(np.min(values))
    hi = float(np.max(values))
    ny, nx = grid.index_of.shape
    img = np.zeros((ny, nx), dtype=np.uint8)
    if hi > lo:
        scaled = np.round(255.0 * (values - lo) / (hi - lo)).astype(np.uint8)
    else:
        scaled = np.zeros(values.shape, dtype=np.uint8)
    img[grid.iy, grid.ix] = scaled
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (nx, ny))
        fh.write(img[::-1].tobytes())  # top row = largest y
    return {"file": path, "min": lo, "max": hi}


def _run_solve(args):
    if args.radial and args.images:
        raise CliUsageError("error: --images needs a 2-D solve; the radial solve has no lattice")
    if args.radial and (args.restarts != 1 or args.seed is not None):
        raise CliUsageError("error: --restarts and --seed need a 2-D solve; "
                            "the radial solve runs one start")
    spec = _domain_from_args(args)
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    opts = _options(args, args.seed)
    # ``pair`` gives theta and t, ``rep`` the outer iterations and the
    # termination; the radial result gives all four
    if args.radial:
        pair = rep = radial_optimize(
            spec.kind, spec.params, args.h, args.Hd, args.mass, n_r=args.nr, opts=opts
        )
        grid = args.nr
        columns = (pair.r, np.zeros_like(pair.r), pair.u, pair.v, pair.rho)
        extra = {}
    else:
        pair, rep = optimize(spec, args.grid, args.h, args.Hd, args.mass, opts=opts)
        grid = args.grid
        columns = (pair.grid.node_x, pair.grid.node_y,
                   pair.u.values, pair.v.values, pair.rho.values)
        extra = {"restart_thetas": list(rep.restart_thetas)}
        if args.images:
            extra["images"] = {
                name: _write_pgm("%s_%s.pgm" % (args.images, name), pair.grid, values)
                for name, values in (("u", pair.u.values), ("rho", pair.rho.values))
            }
    if args.fields:
        _write_fields_csv(args.fields, *columns)

    report = {
        "domain": spec.to_dict(),
        "h": args.h,
        "H": args.Hd,
        "mass": args.mass,
        "grid": grid,
        "theta": pair.theta,
        "t": pair.t,
        "outer_iterations": rep.outer_iterations,
        "termination": rep.termination,
        "timestamp": timestamp,
        "solver_version": __version__,
        "radial": bool(args.radial),
        **extra,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if rep.termination in CONVERGED else 2


def _load_fields_csv(path, grid):
    """The u, v and rho columns of a fields CSV on ``grid``. Lines end in
    LF, CRLF or CR, and each cell is parsed as Python's ``float`` parses
    it. Rows are parsed ``FIELDS_BLOCK`` at a time; a block that fails is
    rescanned row by row to name its first bad row."""
    data = np.empty((grid.n, len(FIELD_COLUMNS)))
    with open(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(FIELD_COLUMNS):
            raise CliUsageError("error: %s row 1: expected header %s"
                                % (path, ",".join(FIELD_COLUMNS)))
        rows = 0
        while lines := list(itertools.islice(fh, FIELDS_BLOCK)):
            try:
                if any(line.count(",") != len(FIELD_COLUMNS) - 1 for line in lines):
                    raise ValueError
                # a line's end stays in its last cell, which float() allows
                block = np.array(",".join(lines).split(","), dtype=float)
            except ValueError:
                k, what = _first_bad_row(lines)
                raise CliUsageError("error: %s row %d: %s" % (path, rows + 2 + k, what))
            if rows + len(lines) <= grid.n:
                data[rows : rows + len(lines)] = block.reshape(len(lines), -1)
            rows += len(lines)
    if rows != grid.n:
        raise CliUsageError(
            "error: %s has %d rows but the grid has %d interior nodes" % (path, rows, grid.n)
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


def _first_bad_row(lines):
    """Position and fault of the first of ``lines`` that is not one float
    per column."""
    for k, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != len(FIELD_COLUMNS):
            return k, "expected 5 columns"
        try:
            [float(c) for c in cells]
        except ValueError:
            return k, "malformed float"


def _run_verify(args):
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks or [""]:  # an empty list names the unknown check ""
        if c not in _CHECKS:
            raise CliUsageError(
                "error: unknown check %r; valid checks: %s" % (c, ", ".join(VALID_CHECKS))
            )
    if args.n_lambda < diagnostics.MIN_LAMBDAS:
        raise CliUsageError("error: --n-lambda must be at least %d" % diagnostics.MIN_LAMBDAS)
    try:
        with open(args.report) as fh:
            report = json.load(fh)
        if report.get("radial"):
            raise CliUsageError("error: verify supports 2-D reports only")
        spec = DomainSpec.from_dict(report["domain"])
        _integer(report["grid"], "grid", ValueError)  # a JSON integer, not 33.7, "33" or true
        for key in ("theta", "t"):  # finite JSON numbers, not "abc", null, true or NaN
            if type(report[key]) not in (int, float) or not math.isfinite(report[key]):
                raise ValueError("%s must be a finite number, got %r" % (key, report[key]))
        grid = build_grid(spec, report["grid"])
        u, v, rho = _load_fields_csv(args.fields, grid)
        pair = OptimalPair(
            u=ScalarField(grid, u), v=ScalarField(grid, v),
            rho=DensityField(grid, rho, report["h"], report["H"], report["mass"]),
            theta=report["theta"], t=report["t"],
        )
    except INPUT_ERRORS:  # these keep their own messages
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # bad JSON, keys, types
        raise CliUsageError("error: %s: unusable report (%s: %s)"
                            % (args.report, type(exc).__name__, exc))

    all_ok = True
    for name in checks:
        try:
            ok, detail = _CHECKS[name](pair, args.n_lambda)
        except diagnostics.DiagnosticsError as exc:  # the check cannot be taken
            ok, detail = False, str(exc)
        all_ok &= ok
        print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    return 0 if all_ok else 2


# ``diagnostics`` is looked up at call time, so a proxy bound to
# ``cli.diagnostics`` sees every call
def _check_symmetry(pair, n_lambda):
    worst = max(diagnostics.asymmetry(pair.u, dim) for dim in (0, 1))
    return worst <= SYMMETRY_TOL, "max relative asymmetry %.3e (tol %.0e)" % (
        worst, SYMMETRY_TOL)


def _check_monotonicity(pair, n_lambda):
    worst = max(diagnostics.monotonicity_violation(pair.u, dim) for dim in (0, 1))
    rel = diagnostics.relative(worst, pair.u.norm_inf, "u")
    return rel <= MONOTONICITY_TOL, "max forward difference %.3e rel (tol %.0e)" % (
        rel, MONOTONICITY_TOL)


def _check_moving_plane(pair, n_lambda):
    worst = math.inf
    for dim in (0, 1):
        rep = diagnostics.moving_plane_profile(pair, dim, n_lambda=n_lambda)
        worst = min(worst, diagnostics.relative(rep.min_w1, pair.u.norm_inf, "u"),
                    diagnostics.relative(rep.min_w2, pair.v.norm_inf, "v"))
    return worst >= -MOVING_PLANE_TOL, "min reflected deficit %.3e rel (tol -%.0e)" % (
        worst, MOVING_PLANE_TOL)


def _check_product(pair, n_lambda):
    n_case3 = 0
    worst = math.inf
    for dim in (0, 1):
        for lam in diagnostics.plane_positions(pair, dim, n_lambda):
            res = diagnostics.product_check(pair.u, pair.rho, pair.t, dim, lam)
            n_case3 += res.case3_count
            worst = min(worst, res.worst_value)
            if not res.ok:
                return False, "defect %.3e at node %d" % (res.worst_value, res.worst_node)
    return True, "worst product difference %.3e, impossible-case nodes %d" % (
        worst, n_case3)


def _check_rigidity(pair, n_lambda):
    rep = diagnostics.normal_derivative_stats(pair)
    ok = np.all(rep.samples < 0.0) and rep.cv < RIGIDITY_CV_MAX
    return ok, "normal derivative mean %.4g, CV %.3e (ball-consistent iff CV < %g)" % (
        rep.mean, rep.cv, RIGIDITY_CV_MAX)


def _check_structure(pair, n_lambda):
    res = diagnostics.structural_checks(pair)
    ok = (res.tubular is not False) and res.axis_convex and res.positive
    return ok, "tubular=%s axis_convex=%s positive=%s" % (
        res.tubular, res.axis_convex, res.positive)


# check name -> fn(pair, n_lambda) -> (ok, detail), in the order verify runs them
_CHECKS = {
    "symmetry": _check_symmetry,
    "monotonicity": _check_monotonicity,
    "moving-plane": _check_moving_plane,
    "product": _check_product,
    "rigidity": _check_rigidity,
    "structure": _check_structure,
}
VALID_CHECKS = tuple(_CHECKS)


def _run_sweep(args):
    if args.steps < 1:
        raise CliUsageError("error: --steps must be positive")
    _options(args, args.seed)  # every option, the seed included, before it seeds a row
    jobs = []  # every row's domain and mass, checked before the first solve
    for a in np.linspace(args.inner_from, args.inner_to, args.steps):
        spec = geometry.annulus(a, 1.0)  # outer radius fixed at 1
        area = spec.area()
        mass_val = args.h * area + args.mass_fraction * (args.Hd - args.h) * area
        # the domain's bracket, then the lattice's and the rings' that each
        # solver checks first
        for admitted in (area, build_grid(spec, args.grid).discrete_area,
                         radial_grid(spec.kind, spec.params, args.nr).discrete_area):
            _check_bracket(admitted, args.h, args.Hd, mass_val)
        jobs.append((a, spec, mass_val))
    rows = [_sweep_row(args, idx, *job) for idx, job in enumerate(jobs)]
    with open(args.out, "w", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in SWEEP_COLUMNS) + "\n")
    return 0 if all(row["termination"] in CONVERGED for row in rows) else 2


def _sweep_row(args, idx, a, spec, mass_val):
    """One sweep row's CSV values; its pair, and with it its grid and
    factorization, is released when the row returns, before the next
    row's grid is built."""
    seed = int(np.random.SeedSequence((args.seed, idx)).generate_state(1)[0])
    opts = _options(args, seed)
    pair, rep = optimize(spec, args.grid, args.h, args.Hd, mass_val, opts=opts)
    radial_res = radial_optimize(
        spec.kind, spec.params, args.h, args.Hd, mass_val, n_r=args.nr, opts=opts
    )
    values = (
        _fmt(a),
        _fmt(pair.theta),
        _fmt(radial_res.theta),
        _fmt(diagnostics.rotation_asymmetry(pair)),
        str(pair.theta < radial_res.theta),
        rep.termination,
    )
    return dict(zip(SWEEP_COLUMNS, values))


_COMMANDS = {"solve": _run_solve, "verify": _run_verify, "sweep-annulus": _run_sweep}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except CliUsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CliUsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # solver/IO failures: report, non-zero exit
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: solve, verify, sweep-annulus.

Reports go to JSON (stable keys: domain, h, H, mass, grid, theta, t,
outer_iterations, termination, timestamp, solver_version), fields to CSV
with header ``x,y,u,v,rho`` and 17-significant-digit floats (bit-exact
round trip), optional 8-bit PGM images of u and rho with the gray scale
recorded in the report.

Exit codes: 0 converged / all checks pass, 1 usage or input error,
2 non-convergence or failed checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import __version__, diagnostics, geometry
from .fields import ScalarField
from .geometry import DomainSpec, GeometryError, build_grid
from .optimizer import OptimizeOptions, OptimalPair, optimize
from .radial import RadialError, radial_optimize
from .rearrange import DensityField, RearrangeError

VALID_CHECKS = (
    "symmetry",
    "monotonicity",
    "moving-plane",
    "product",
    "rigidity",
    "structure",
)

SYMMETRY_TOL = 1e-6
MONOTONICITY_TOL = 1e-10
MOVING_PLANE_TOL = 1e-8
RIGIDITY_CV_MAX = 0.01
CONVERGED = ("theta-converged", "rho-fixed")


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
    ps.add_argument("--grid", type=int, default=129, help="nodes per side (boundary inclusive)")
    ps.add_argument("--tol", type=float, default=1e-11, help="eigensolver tolerance")
    ps.add_argument("--theta-tol", type=float, default=1e-8)
    ps.add_argument("--max-outer", type=int, default=200)
    ps.add_argument("--restarts", type=int, default=1)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--radial", action="store_true", help="use the 1-D radial solver")
    ps.add_argument("--nr", type=int, default=1024, help="radial grid cells")
    ps.add_argument("--out", default=None, help="JSON report path")
    ps.add_argument("--fields", default=None, help="CSV fields path")
    ps.add_argument("--images", default=None, help="PGM image path prefix")

    pv = sub.add_parser("verify", help="re-run diagnostics on exported fields")
    pv.add_argument("--report", required=True, help="JSON report from solve")
    pv.add_argument("--fields", required=True, help="CSV fields from solve")
    pv.add_argument("--checks", default=",".join(VALID_CHECKS))
    pv.add_argument("--n-lambda", type=int, default=16)

    pw = sub.add_parser("sweep-annulus", help="inner-radius sweep with restarts")
    pw.add_argument("--inner-from", type=float, required=True)
    pw.add_argument("--inner-to", type=float, required=True)
    pw.add_argument("--steps", type=int, required=True)
    pw.add_argument("--h", type=float, default=1.0)
    pw.add_argument("--H", dest="Hd", type=float, default=2.0)
    pw.add_argument("--mass-fraction", type=float, default=0.5,
                    help="position of the mass inside [h*area, H*area]")
    pw.add_argument("--grid", type=int, default=193)
    pw.add_argument("--nr", type=int, default=1024)
    pw.add_argument("--tol", type=float, default=1e-11)
    pw.add_argument("--theta-tol", type=float, default=1e-8)
    pw.add_argument("--max-outer", type=int, default=200)
    pw.add_argument("--restarts", type=int, default=1)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--out", required=True, help="CSV output path")
    return p


# --domain value -> the flags holding its parameters, in DomainSpec order
_DOMAIN_FLAGS = {
    "disk": ("radius",),
    "annulus": ("inner", "radius"),
    "ellipse": ("semi_x", "semi_y"),
    "rectangle": ("width", "height"),
    "stadium": ("length", "cap_radius"),
}


def _add_domain_flags(ps):
    ps.add_argument("--domain", required=True, choices=["square", *_DOMAIN_FLAGS])
    ps.add_argument("--radius", type=float, default=1.0, help="disk/annulus outer radius")
    ps.add_argument("--inner", type=float, default=None, help="annulus inner radius")
    ps.add_argument("--semi-x", type=float, default=1.0)
    ps.add_argument("--semi-y", type=float, default=0.6)
    ps.add_argument("--width", type=float, default=1.0)
    ps.add_argument("--height", type=float, default=1.0)
    ps.add_argument("--length", type=float, default=1.0, help="stadium straight length")
    ps.add_argument("--cap-radius", type=float, default=0.5)


def _domain_from_args(args):
    if args.domain == "square":
        return geometry.unit_square()
    params = [getattr(args, name) for name in _DOMAIN_FLAGS[args.domain]]
    if None in params:  # --inner is the one domain flag without a default
        raise CliUsageError("error: --inner is required for --domain %s" % args.domain)
    return DomainSpec.from_dict({"kind": args.domain, "params": params})


def _fmt(v):
    return "%.17g" % float(v)


def _write_fields_csv(path, xs, ys, u, v, rho):
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,u,v,rho\n")
        for row in zip(xs, ys, u, v, rho):
            fh.write(",".join(_fmt(c) for c in row) + "\n")


def _write_pgm(path, grid, values):
    """8-bit grayscale of a node field on the lattice; returns (min, max)."""
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
    return lo, hi


def _run_solve(args):
    spec = _domain_from_args(args)
    opts = OptimizeOptions(
        theta_tol=args.theta_tol,
        max_outer=args.max_outer,
        eig_tol=args.tol,
        restarts=args.restarts,
        seed=args.seed,
    )
    report = {
        "domain": spec.to_dict(),
        "h": args.h,
        "H": args.Hd,
        "mass": args.mass,
        "grid": None,
        "theta": None,
        "t": None,
        "outer_iterations": None,
        "termination": None,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "solver_version": __version__,
        "radial": bool(args.radial),
    }

    if args.radial:
        res = radial_optimize(
            spec.kind, spec.params, args.h, args.Hd, args.mass, n_r=args.nr, opts=opts
        )
        report["grid"] = args.nr
        report["theta"] = res.theta
        report["t"] = res.t
        report["outer_iterations"] = res.outer_iterations
        report["termination"] = res.termination
        if args.fields:
            zeros = np.zeros_like(res.r)
            _write_fields_csv(args.fields, res.r, zeros, res.u, res.v, res.rho)
    else:
        pair, solve_report = optimize(
            spec, args.grid, args.h, args.Hd, args.mass, opts=opts
        )
        report["grid"] = args.grid
        report["theta"] = pair.theta
        report["t"] = pair.t
        report["outer_iterations"] = solve_report.outer_iterations
        report["termination"] = solve_report.termination
        report["restart_thetas"] = list(solve_report.restart_thetas)
        if args.fields:
            _write_fields_csv(
                args.fields,
                pair.grid.node_x,
                pair.grid.node_y,
                pair.u.values,
                pair.v.values,
                pair.rho.values,
            )
        if args.images:
            images = {}
            for name, values in (("u", pair.u.values), ("rho", pair.rho.values)):
                path = "%s_%s.pgm" % (args.images, name)
                lo, hi = _write_pgm(path, pair.grid, values)
                images[name] = {"file": path, "min": lo, "max": hi}
            report["images"] = images

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["termination"] in CONVERGED else 2


def _load_fields_csv(path, grid):
    xs, ys, us, vs, rhos = [], [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "y", "u", "v", "rho"]:
            raise CliUsageError("error: %s row 1: expected header x,y,u,v,rho" % path)
        for k, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise CliUsageError("error: %s row %d: expected 5 columns" % (path, k))
            try:
                vals = [float(c) for c in row]
            except ValueError:
                raise CliUsageError("error: %s row %d: malformed float" % (path, k))
            xs.append(vals[0]); ys.append(vals[1])
            us.append(vals[2]); vs.append(vals[3]); rhos.append(vals[4])
    if len(xs) != grid.n:
        raise CliUsageError(
            "error: %s has %d rows but the grid has %d interior nodes"
            % (path, len(xs), grid.n)
        )
    xs = np.asarray(xs); ys = np.asarray(ys)
    tol = 1e-9 * grid.delta
    bad = np.flatnonzero(
        (np.abs(xs - grid.node_x) > tol) | (np.abs(ys - grid.node_y) > tol)
    )
    if bad.size:
        raise CliUsageError(
            "error: %s row %d: coordinates do not match the grid" % (path, bad[0] + 2)
        )
    return np.asarray(us), np.asarray(vs), np.asarray(rhos)


def _run_verify(args):
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in VALID_CHECKS:
            raise CliUsageError(
                "error: unknown check %r; valid checks: %s" % (c, ", ".join(VALID_CHECKS))
            )
    with open(args.report) as fh:
        report = json.load(fh)
    if report.get("radial"):
        raise CliUsageError("error: verify supports 2-D reports only")
    spec = DomainSpec.from_dict(report["domain"])
    grid = build_grid(spec, int(report["grid"]))
    u_vals, v_vals, rho_vals = _load_fields_csv(args.fields, grid)
    u = ScalarField(grid, u_vals)
    v = ScalarField(grid, v_vals)
    rho = DensityField(grid, rho_vals, report["h"], report["H"], report["mass"])
    pair = OptimalPair(
        u=u, v=v, rho=rho, theta=report["theta"], t=report["t"], grid=grid, spec=spec
    )

    all_ok = True
    for name in checks:
        ok, detail = _run_one_check(name, pair, args.n_lambda)
        all_ok &= ok
        print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    return 0 if all_ok else 2


def _run_one_check(name, pair, n_lambda):
    if name == "symmetry":
        worst = max(diagnostics.asymmetry(pair.u, ax) for ax in pair.spec.axes)
        return worst <= SYMMETRY_TOL, "max relative asymmetry %.3e (tol %.0e)" % (
            worst,
            SYMMETRY_TOL,
        )
    if name == "monotonicity":
        worst = max(
            diagnostics.monotonicity_violation(pair.u, ax) for ax in pair.spec.axes
        )
        rel = worst / pair.u.norm_inf
        return rel <= MONOTONICITY_TOL, "max forward difference %.3e rel (tol %.0e)" % (
            rel,
            MONOTONICITY_TOL,
        )
    if name == "moving-plane":
        worst = math.inf
        for ax in pair.spec.axes:
            rep = diagnostics.moving_plane_profile(pair, ax, n_lambda=n_lambda)
            worst = min(
                worst,
                rep.min_w1 / pair.u.norm_inf,
                rep.min_w2 / pair.v.norm_inf,
            )
        return worst >= -MOVING_PLANE_TOL, "min reflected deficit %.3e rel (tol -%.0e)" % (
            worst,
            MOVING_PLANE_TOL,
        )
    if name == "product":
        n_case3 = 0
        worst = math.inf
        for ax in pair.spec.axes:
            lo, hi = diagnostics.plane_window(pair, ax)
            for lam in np.linspace(lo, hi, n_lambda):
                res = diagnostics.product_check(pair.u, pair.rho, pair.t, ax, lam)
                n_case3 += res.case3_count
                worst = min(worst, res.worst_value)
                if not res.ok:
                    return False, "defect %.3e at node %d" % (res.worst_value, res.worst_node)
        return True, "worst product difference %.3e, impossible-case nodes %d" % (
            worst,
            n_case3,
        )
    if name == "rigidity":
        rep = diagnostics.normal_derivative_stats(pair)
        ok = diagnostics.normal_samples_all_negative(rep) and rep.cv < RIGIDITY_CV_MAX
        return ok, "normal derivative mean %.4g, CV %.3e (ball-consistent iff CV < %g)" % (
            rep.mean,
            rep.cv,
            RIGIDITY_CV_MAX,
        )
    if name == "structure":
        res = diagnostics.structural_checks(pair)
        ok = (res.tubular is not False) and res.axis_convex and res.positive
        return ok, "tubular=%s axis_convex=%s positive=%s" % (
            res.tubular,
            res.axis_convex,
            res.positive,
        )
    raise CliUsageError("error: unknown check %r" % (name,))


def _run_sweep(args):
    if args.steps < 1:
        raise CliUsageError("error: --steps must be positive")
    inners = np.linspace(args.inner_from, args.inner_to, args.steps)
    rows = []
    for idx, a in enumerate(inners):
        seed = None if args.seed is None else int(np.random.SeedSequence(
            (args.seed, idx)
        ).generate_state(1)[0])
        area = math.pi * (1.0 - a * a)  # outer radius fixed at 1
        mass_val = args.h * area + args.mass_fraction * (args.Hd - args.h) * area
        spec = geometry.annulus(a, 1.0)
        opts = OptimizeOptions(
            theta_tol=args.theta_tol,
            max_outer=args.max_outer,
            eig_tol=args.tol,
            restarts=args.restarts,
            seed=seed,
        )
        pair, rep = optimize(spec, args.grid, args.h, args.Hd, mass_val, opts=opts)
        radial_res = radial_optimize(
            "annulus", (a, 1.0), args.h, args.Hd, mass_val, n_r=args.nr, opts=opts
        )
        asym = diagnostics.rotation_asymmetry(pair, n_angles=32)
        rows.append(
            (
                a,
                pair.theta,
                radial_res.theta,
                asym,
                pair.theta < radial_res.theta,
                rep.termination,
            )
        )
    with open(args.out, "w", newline="\n") as fh:
        fh.write("inner_radius,theta_2d,theta_radial,rotation_asymmetry,beats_radial,termination\n")
        for row in rows:
            fh.write(
                "%s,%s,%s,%s,%s,%s\n"
                % (_fmt(row[0]), _fmt(row[1]), _fmt(row[2]), _fmt(row[3]), row[4], row[5])
            )
    return 0 if all(row[5] in CONVERGED for row in rows) else 2


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except CliUsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "sweep-annulus":
            return _run_sweep(args)
    except CliUsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (GeometryError, RearrangeError, RadialError) as exc:  # bad input values
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # solver/IO failures: report, non-zero exit
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

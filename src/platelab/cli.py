"""Command-line front end: solve, verify, sweep-annulus.

Reports go to JSON (stable keys: domain, h, H, mass, grid, theta, t,
outer_iterations, termination, timestamp, solver_version), fields to CSV
with header ``x,y,u,v,rho`` and 17-significant-digit floats (bit-exact
round trip), and for 2-D solves optional 8-bit PGM images of u and rho
with the gray scale recorded in the report.

``sweep-annulus`` writes one CSV row per inner radius: ``inner_radius,
theta_2d, theta_radial, rotation_asymmetry, termination,
termination_radial``, the last two the 2-D and the radial solve's. No
column compares the two thetas: they come from two discretizations, so
the radial one was the larger on every row. ``rotation_asymmetry`` reads
``nan`` where the lattice has no rotated node to compare.

Exit codes: 0 converged / all checks pass, 1 usage or input error (a
file that cannot be opened included), 2 non-convergence or failed
checks. A sweep admits every row, then opens ``--out`` and writes each
row as it is solved, so its CSV holds every row solved. It exits 2
unless both termination columns of every row read ``rho-fixed`` or
``theta-converged``; a row that raises ends it with exit 2 and one
``error:`` line. A check that cannot be taken on the fields fails, and
the remaining checks still run.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time

import numpy as np

from . import __version__, diagnostics, geometry
from .fields import ScalarField
from .geometry import DomainSpec, GeometryError, _integer, build_grid
from .optimizer import OptimizeError, OptimalPair, _check_starts, optimize
from .radial import radial_grid, radial_optimize
from .rearrange import DensityField, RearrangeError, _check_bracket, uniform_density

SYMMETRY_TOL = 1e-6
MONOTONICITY_TOL = 1e-10
MOVING_PLANE_TOL = 1e-8
RIGIDITY_CV_MAX = 0.01
CONVERGED = ("theta-converged", "rho-fixed")
# bad input values, and input or output files that cannot be opened
INPUT_ERRORS = (GeometryError, OptimizeError, RearrangeError, OSError)
FIELD_COLUMNS = ("x", "y", "u", "v", "rho")
FIELDS_BLOCK = 4096  # rows formatted at a time
_TABLE_ROWS = 4  # a column with at most one distinct value per this many rows is tabled
# every byte the writer puts below the header: the digits, the signs, the
# point, the exponent, nan and inf, the comma and LF
_WRITER_BYTES = b"0123456789+-.enaif,\n"
RADIAL_CELLS = inspect.signature(radial_optimize).parameters["n_r"].default
RESTARTS, SEED = (inspect.signature(optimize).parameters[name].default
                  for name in ("restarts", "seed"))
SWEEP_COLUMNS = ("inner_radius", "theta_2d", "theta_radial", "rotation_asymmetry", "termination",
                 "termination_radial")


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
    _add_solver_flags(ps, grid=129)
    ps.set_defaults(seed=None)  # None: --seed not given, which --radial refuses
    ps.add_argument("--radial", action="store_true", help="use the 1-D radial solver")
    ps.add_argument("--out", default=None, help="JSON report path")
    ps.add_argument("--fields", default=None, help="CSV fields path")
    ps.add_argument("--images", default=None, help="PGM image path prefix")

    pv = sub.add_parser("verify", help="re-run diagnostics on exported fields")
    pv.add_argument("--report", required=True, help="JSON report from solve")
    pv.add_argument("--fields", required=True, help="CSV fields from solve")
    pv.add_argument("--checks", default=",".join(VALID_CHECKS))

    pw = sub.add_parser("sweep-annulus", help="inner-radius sweep with restarts")
    pw.add_argument("--inner-from", type=float, required=True)
    pw.add_argument("--inner-to", type=float, required=True)
    pw.add_argument("--steps", type=int, required=True)
    pw.add_argument("--h", type=float, default=1.0)
    pw.add_argument("--H", dest="Hd", type=float, default=2.0)
    pw.add_argument("--mass-fraction", type=float, default=0.5,
                    help="position of the mass inside [h*area, H*area]")
    _add_solver_flags(pw, grid=193)
    pw.add_argument("--out", required=True, help="CSV output path")
    return p


def _add_solver_flags(ps, grid):
    """Grid sizes and starts; the radial grid's and the starts' defaults
    are ``radial_optimize``'s and ``optimize``'s own."""
    ps.add_argument("--grid", type=int, default=grid, help="nodes per side (boundary inclusive)")
    ps.add_argument("--nr", type=int, default=RADIAL_CELLS, help="radial grid cells")
    ps.add_argument("--restarts", type=int, default=RESTARTS)
    ps.add_argument("--seed", type=int, default=SEED)


_FLAG_OF = {"outer": "radius"}  # shape parameters whose flag is not their name
_FLAG_HELP = {"radius": "disk/annulus outer radius", "inner": "annulus inner radius",
              "length": "stadium straight length"}
# every kind's shape flags, as argparse dests, in table order
_SHAPE_FLAGS = tuple(dict.fromkeys(_FLAG_OF.get(n, n) for ns in geometry.PARAMS.values()
                                   for n in ns))


def _add_domain_flags(ps):
    ps.add_argument("--domain", required=True, choices=["square", *geometry.PARAMS])
    for flag in _SHAPE_FLAGS:
        ps.add_argument("--" + flag.replace("_", "-"), type=float, help=_FLAG_HELP.get(flag))


def _domain_from_args(args):
    """The domain of ``--domain`` and its shape flags; a shape flag of
    another kind is refused, not dropped."""
    names = geometry.PARAMS.get(args.domain, ())  # the square takes none
    takes = [_FLAG_OF.get(n, n) for n in names]
    for flag in _SHAPE_FLAGS:
        if getattr(args, flag) is not None and flag not in takes:
            raise CliUsageError("error: --%s does not apply to --domain %s"
                                % (flag.replace("_", "-"), args.domain))
    if args.domain == "square":
        return geometry.unit_square()
    build = getattr(geometry, args.domain)  # the kind's constructor holds the defaults
    given = {n: getattr(args, flag) for n, flag in zip(names, takes)}
    for name, p in inspect.signature(build).parameters.items():
        if p.default is p.empty and given[name] is None:
            raise CliUsageError("error: --%s is required for --domain %s"
                                % (_FLAG_OF.get(name, name).replace("_", "-"), args.domain))
    return build(**{name: v for name, v in given.items() if v is not None})


def _fmt(v):
    return "%.17g" % float(v)


def _write_fields_csv(path, *columns):
    """Write ``columns`` under the ``x,y,u,v,rho`` header, ``%.17g`` per
    cell, ``FIELDS_BLOCK`` rows at a time. A column with at most one
    distinct bit pattern per ``_TABLE_ROWS`` rows (the lattice's x and y,
    the density's two or three levels) formats each pattern once and
    substitutes the strings, which writes the same bytes."""
    cells, formats = [], []
    for c in columns:
        c = np.ascontiguousarray(c, dtype=float)
        bits = c.view(np.uint64)  # so that -0.0 and 0.0 keep their own strings
        ordered = np.sort(bits)  # np.unique takes ten times as long on u and v
        step = ordered[1:] != ordered[:-1]
        if (1 + np.count_nonzero(step)) * _TABLE_ROWS <= len(c):
            distinct = np.r_[ordered[:1], ordered[1:][step]]
            table = np.array(["%.17g" % x for x in distinct.view(float).tolist()], dtype=object)
            cells.append((table, np.searchsorted(distinct, bits)))
            formats.append("%s")
        else:
            cells.append((None, c))
            formats.append("%.17g")
    row = ",".join(formats) + "\n"
    n = len(cells[0][1])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(FIELD_COLUMNS) + "\n")
        for start in range(0, n, FIELDS_BLOCK):
            block = np.empty((min(n - start, FIELDS_BLOCK), len(cells)), dtype=object)
            for j, (table, values) in enumerate(cells):
                part = values[start : start + len(block)]
                block[:, j] = part if table is None else table[part]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


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
    # ``pair`` gives theta and t, ``rep`` the outer iterations and the
    # termination; the radial result gives all four
    if args.radial:
        pair = rep = radial_optimize(spec.kind, spec.params, args.h, args.Hd, args.mass,
                                     n_r=args.nr)
        grid = args.nr
        extra = {}
    else:
        seed = SEED if args.seed is None else args.seed
        pair, rep = optimize(spec, args.grid, args.h, args.Hd, args.mass, args.restarts, seed)
        grid = args.grid
        extra = {"restart_thetas": list(rep.restart_thetas)}
        if args.images:
            extra["images"] = {
                name: _write_pgm("%s_%s.pgm" % (args.images, name), pair.grid, values)
                for name, values in (("u", pair.u.values), ("rho", pair.rho.values))
            }
    if args.fields:
        _write_fields_csv(args.fields, pair.grid.node_x, pair.grid.node_y,
                          pair.u.values, pair.v.values, pair.rho.values)

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
    it. A file as ``solve`` writes it goes to numpy's C parser; any other
    goes to ``_parse_fields_csv``, which names the first bad row."""
    data = _read_own_fields_csv(path, grid)
    if data is None:
        data = _parse_fields_csv(path, grid)
    tol = 1e-9 * grid.delta
    for bad, what in (
        (~np.isfinite(data).all(axis=1), "non-finite value"),
        ((np.abs(data[:, 0] - grid.node_x) > tol) | (np.abs(data[:, 1] - grid.node_y) > tol),
         "coordinates do not match the grid"),
    ):
        if bad.any():
            raise CliUsageError("error: %s row %d: %s" % (path, np.argmax(bad) + 2, what))
    return data[:, 2], data[:, 3], data[:, 4]


def _read_own_fields_csv(path, grid):
    """The rows of a fields CSV by ``np.loadtxt``, or None unless the file
    is one the writer could have written on ``grid``: the LF header, then
    ``grid.n`` LF-ended lines of the writer's bytes only, parsed to
    ``grid.n`` rows of five. Outside those bytes numpy and ``float``
    differ: numpy skips blank lines, refuses digit underscores and strips
    ``\\x1c``-``\\x1f`` as whitespace, which ``float`` refuses."""
    with open(path, "rb") as fh:
        if fh.readline() != (",".join(FIELD_COLUMNS) + "\n").encode():
            return None
        body = fh.tell()
        lines, last = 0, b""
        while chunk := fh.read(1 << 18):  # scanned in chunks, not held whole
            if chunk.translate(None, _WRITER_BYTES):
                return None
            lines += chunk.count(b"\n")
            last = chunk
        if lines != grid.n or not last.endswith(b"\n"):
            return None
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            return None
    return data if data.shape == (grid.n, len(FIELD_COLUMNS)) else None


def _parse_fields_csv(path, grid):
    """The rows of a fields CSV on ``grid``, read line by line, each cell
    by ``float``; the first bad row is named. A byte that is not UTF-8
    fails ``float`` on its own row."""
    data = np.empty((grid.n, len(FIELD_COLUMNS)))
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if fh.readline().rstrip("\n") != ",".join(FIELD_COLUMNS):
            raise CliUsageError("error: %s row 1: expected header %s"
                                % (path, ",".join(FIELD_COLUMNS)))
        rows = 0
        for rows, line in enumerate(fh, 1):
            cells = line.split(",")  # a line's end stays in its last cell, which float() allows
            if len(cells) != len(FIELD_COLUMNS):
                raise CliUsageError("error: %s row %d: expected 5 columns" % (path, rows + 1))
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise CliUsageError("error: %s row %d: malformed float" % (path, rows + 1))
            if rows <= grid.n:
                data[rows - 1] = row
    if rows != grid.n:
        raise CliUsageError(
            "error: %s has %d rows but the grid has %d interior nodes" % (path, rows, grid.n)
        )
    return data


def _run_verify(args):
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks or [""]:  # an empty list names the unknown check ""
        if c not in _CHECKS:
            raise CliUsageError(
                "error: unknown check %r; valid checks: %s" % (c, ", ".join(VALID_CHECKS))
            )
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

    # sweep(dim): that direction's moving-plane sweep, taken on first use for both plane checks
    sweep = functools.cache(lambda dim: diagnostics.moving_plane_profile(pair, dim))
    all_ok = True
    for name in checks:
        try:
            ok, detail = _CHECKS[name](pair, sweep)
        except diagnostics.DiagnosticsError as exc:  # the check cannot be taken
            ok, detail = False, str(exc)
        all_ok &= ok
        print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    return 0 if all_ok else 2


# ``diagnostics`` is looked up at call time, so a proxy bound to
# ``cli.diagnostics`` sees every call
def _check_symmetry(pair, sweep):
    worst = max(diagnostics.asymmetry(pair.u, dim) for dim in (0, 1))
    return worst <= SYMMETRY_TOL, "max relative asymmetry %.3e (tol %.0e)" % (
        worst, SYMMETRY_TOL)


def _check_monotonicity(pair, sweep):
    worst = max(diagnostics.monotonicity_violation(pair.u, dim) for dim in (0, 1))
    rel = diagnostics.relative(worst, pair.u.norm_inf, "u")
    return rel <= MONOTONICITY_TOL, "max forward difference %.3e rel (tol %.0e)" % (
        rel, MONOTONICITY_TOL)


def _check_moving_plane(pair, sweep):
    worst = math.inf
    for dim in (0, 1):
        rep = sweep(dim)
        worst = min(worst, diagnostics.relative(rep.min_w1, pair.u.norm_inf, "u"),
                    diagnostics.relative(rep.min_w2, pair.v.norm_inf, "v"))
    return worst >= -MOVING_PLANE_TOL, "min reflected deficit %.3e rel (tol -%.0e)" % (
        worst, MOVING_PLANE_TOL)


def _check_product(pair, sweep):
    worst, n_case3 = math.inf, 0
    for dim in (0, 1):
        rep = sweep(dim)
        if rep.product_fault is not None:
            return False, rep.product_fault
        n_case3 += rep.case3_count
        worst = min(worst, rep.min_product)
    return True, "worst product difference %.3e, impossible-case nodes %d" % (
        worst, n_case3)


def _check_rigidity(pair, sweep):
    rep = diagnostics.normal_derivative_stats(pair)
    ok = np.all(rep.samples < 0.0) and rep.cv < RIGIDITY_CV_MAX
    return ok, "normal derivative mean %.4g, CV %.3e (ball-consistent iff CV < %g)" % (
        rep.mean, rep.cv, RIGIDITY_CV_MAX)


def _check_structure(pair, sweep):
    res = diagnostics.structural_checks(pair)
    ok = (res.tubular is not False) and res.axis_convex and res.positive
    return ok, "tubular=%s axis_convex=%s positive=%s" % (
        res.tubular, res.axis_convex, res.positive)


# check name -> fn(pair, sweep) -> (ok, detail), in the order verify runs them
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
    if args.steps == 1 and args.inner_to != args.inner_from:
        raise CliUsageError("error: --steps 1 sweeps one radius; --inner-to must equal "
                            "--inner-from")
    _check_starts(args.restarts, args.seed)  # before the seed seeds a row
    jobs = []  # every row's domain and mass, checked before the first solve
    for a in np.linspace(args.inner_from, args.inner_to, args.steps):
        spec = geometry.annulus(a, 1.0)  # outer radius fixed at 1
        area = spec.area()
        mass_val = args.h * area + args.mass_fraction * (args.Hd - args.h) * area
        # the domain's bracket, then the start density each solver builds first
        _check_bracket(area, args.h, args.Hd, mass_val)
        uniform_density(build_grid(spec, args.grid), args.h, args.Hd, mass_val)
        uniform_density(radial_grid(spec.kind, spec.params, args.nr), args.h, args.Hd, mass_val)
        jobs.append((a, spec, mass_val))
    with open(args.out, "w", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        # a list, not a generator: all() stops at its first False, and every row is solved
        return 0 if all([_sweep_row(args, fh, idx, *job) for idx, job in enumerate(jobs)]) else 2


def _sweep_row(args, fh, idx, a, spec, mass_val):
    """Solve one sweep row, write its line to ``fh`` in ``SWEEP_COLUMNS``
    order, flushed, and return whether both of its solves converged. Its
    pair, and with it its grid and factorization, is released when the
    row returns, before the next row's grid is built."""
    seed = int(np.random.SeedSequence((args.seed, idx)).generate_state(1)[0])
    pair, rep = optimize(spec, args.grid, args.h, args.Hd, mass_val, args.restarts, seed)
    radial_res = radial_optimize(spec.kind, spec.params, args.h, args.Hd, mass_val, n_r=args.nr)
    try:
        asymmetry = diagnostics.rotation_asymmetry(pair)
    except diagnostics.DiagnosticsError:  # the measure cannot be taken on this lattice
        asymmetry = math.nan
    terms = (rep.termination, radial_res.termination)
    fh.write(",".join((_fmt(a), _fmt(pair.theta), _fmt(radial_res.theta), _fmt(asymmetry),
                       *terms)) + "\n")
    fh.flush()
    return all(term in CONVERGED for term in terms)


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
    except Exception as exc:  # solver failures: report, non-zero exit
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

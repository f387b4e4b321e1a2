"""Golden values that guard refactors of the solver pipeline.

The three small jobs the benchmark runs at set-up (``platebench/jobs.py``,
``SMALL``): the disk at grid 33, the unit square at grid 33, and the
annulus of inner radius 0.12 at grid 41 with two starts seeded as
``plate-lab sweep-annulus --seed 0`` seeds its first row, plus the radial
solver on that annulus at 128 cells. One more row, the thin annulus of
inner radius 0.85 at grid 49 seeded the same way, is one whose
eigensolves hand off from power iteration to the Krylov solve, and the
annulus of inner radius 0.9 at grid 97, one start, is one whose
hand-offs return Ritz vectors with negative rounding noise, clipped at
0 before the closing map. The remaining rows end on the other two
terminations, ``theta-converged`` and ``max-outer``, on both paths,
under a patched ``optimizer.THETA_TOL`` or ``optimizer.MAX_OUTER``. A
change that moves theta by more than 1e-12 relative, or changes the
termination, the outer-iteration count or the eigen-iteration count of
an outer step, has changed the numerics and must say why.

Both paths run one alternation driver and one eigen-iteration. Verbatim
copies of the two alternation loops they replaced, and of the radial
path's own power loop, are kept below, and every row is compared with
them bitwise.
"""

import contextlib
import io
import json
import math
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

import platelab as pl
from platelab.eigensolver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EigenError,
    _quotient,
    principal_pair,
)
from platelab.fields import ScalarField
from platelab.geometry import DomainSpec, reflect_cap
from platelab import optimizer
from platelab.optimizer import OptimalPair, SolveReport
from platelab.radial import RadialResult, _radial_operator, radial_grid
from platelab.rearrange import (
    RearrangeError,
    _bathtub,
    _check_bracket,
    optimal_density,
    uniform_density,
)
from conftest import mass

REL = 1e-12
INNER = 0.12
ANNULUS_MASS = 1.5 * math.pi * (1.0 - INNER * INNER)  # h = 1, H = 2, half fill
THIN = 0.85
THIN_MASS = 1.5 * math.pi * (1.0 - THIN * THIN)
THINNER = 0.9
THINNER_MASS = 1.5 * math.pi * (1.0 - THINNER * THINNER)
HALF = 0.5
HALF_MASS = 1.5 * math.pi * (1.0 - HALF * HALF)
ANNULUS_STARTS = {
    "restarts": 2, "seed": int(np.random.SeedSequence((0, 0)).generate_state(1)[0])
}

# spec, grid, mass, optimize's start keywords, the optimizer stop constants
# patched, theta, termination, outer steps, inner iterations
OPTIMIZE_ROWS = [
    (pl.disk(), 33, math.pi * 1.5, {}, {}, 17.362154323634442, "rho-fixed", 2,
     (7, 5)),
    (pl.unit_square(), 33, 1.5, {}, {}, 198.77662708938155, "rho-fixed", 2,
     (6, 4)),
    (pl.annulus(INNER, 1.0), 41, ANNULUS_MASS, ANNULUS_STARTS, {}, 72.47523531018791,
     "rho-fixed", 3, (7, 10, 7)),
    (pl.annulus(THIN, 1.0), 49, THIN_MASS, ANNULUS_STARTS, {}, 91332.31020743366, "rho-fixed", 5,
     (41, 38, 35, 35, 34)),
    (pl.annulus(HALF, 1.0), 33, HALF_MASS, {}, {"THETA_TOL": 1e-2},
     815.5708286669584, "theta-converged", 3, (12, 15, 16)),
    (pl.annulus(THIN, 1.0), 49, THIN_MASS, {}, {"MAX_OUTER": 2},
     93763.84817811314, "max-outer", 2, (15, 75)),
    (pl.annulus(THINNER, 1.0), 97, THINNER_MASS, {}, {}, 469466.81788558053, "rho-fixed", 33,
     (18, 124, 112, 52, 50, 49, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 47, 48, 48, 48, 48, 48,
      47, 47, 47, 47, 47, 48, 47, 47, 47, 47, 44)),
]
OPTIMIZE_IDS = ["disk-33", "square-33", "annulus-0.12-41", "annulus-0.85-49",
                "annulus-0.5-33-theta-converged", "annulus-0.85-49-max-outer", "annulus-0.9-97"]

# kind, radii, mass, n_r, the optimizer stop constants patched, theta,
# termination, outer steps
RADIAL_ROWS = [
    # 3 outer steps and theta 72.87768318344891 while the bathtub's closing
    # sum ran in u order: the first two steps gave one H set two densities
    # 6.7e-15 apart
    ("annulus", (INNER, 1.0), ANNULUS_MASS, 128, {}, 72.87768318344958, "rho-fixed", 2),
    ("annulus", (HALF, 1.0), HALF_MASS, 256, {"THETA_TOL": 0.5}, 832.8204628735149,
     "theta-converged", 2),
    ("disk", (1.0,), 1.5 * math.pi, 512, {"MAX_OUTER": 1}, 17.474556984244632, "max-outer", 1),
]
RADIAL_IDS = ["annulus-0.12-128", "annulus-0.5-256-theta-converged", "disk-512-max-outer"]


def _patch_stop(monkeypatch, stop):
    """Set the optimizer's stop constants named in ``stop``."""
    for name, value in stop.items():
        monkeypatch.setattr(optimizer, name, value)


@pytest.mark.parametrize("spec, grid, mass, starts, stop, theta, termination, outer, inner",
                         OPTIMIZE_ROWS, ids=OPTIMIZE_IDS)
def test_optimize_golden(spec, grid, mass, starts, stop, theta, termination, outer, inner,
                         monkeypatch):
    _patch_stop(monkeypatch, stop)
    pair, report = pl.optimize(spec, grid, 1.0, 2.0, mass, **starts)
    assert pair.theta == pytest.approx(theta, rel=REL, abs=0.0)
    assert report.termination == termination
    assert report.outer_iterations == outer
    assert report.inner_iterations == inner


def test_radial_golden():
    res = pl.radial_optimize("annulus", (INNER, 1.0), 1.0, 2.0, ANNULUS_MASS, n_r=128)
    assert res.theta == pytest.approx(72.87768318344958, rel=REL, abs=0.0)
    assert res.termination == "rho-fixed"
    assert res.outer_iterations == 2


@pytest.mark.parametrize("kind, radii, mass, n_r, stop, theta, termination, outer",
                         RADIAL_ROWS[1:], ids=RADIAL_IDS[1:])
def test_radial_golden_terminations(kind, radii, mass, n_r, stop, theta, termination, outer,
                                    monkeypatch):
    _patch_stop(monkeypatch, stop)
    res = pl.radial_optimize(kind, radii, 1.0, 2.0, mass, n_r=n_r)
    assert res.theta == pytest.approx(theta, rel=REL, abs=0.0)
    assert res.termination == termination
    assert res.outer_iterations == outer


def _optimize_loop(spec, nodes_per_side, h, H, M, restarts=1, seed=0):
    """Reference: ``optimize`` and its own alternation loop, verbatim."""
    grid = pl.build_grid(spec, nodes_per_side)
    op = pl.assemble_laplacian(grid)

    starts = [uniform_density(grid, h, H, M)]
    if restarts > 1:
        rng = np.random.default_rng(seed)
        for _ in range(restarts - 1):
            probe = ScalarField(grid, rng.uniform(0.5, 1.5, grid.n))
            starts.append(optimal_density(probe, h, H, M)[0])

    best = None
    thetas = []
    for rho0 in starts:
        pair, report = _alternate_loop(op, rho0, h, H, M)
        thetas.append(pair.theta)
        if best is None or pair.theta < best[0].theta:
            best = (pair, report)
    pair, report = best
    return pair, replace(report, restart_thetas=tuple(thetas))


def _alternate_loop(op, rho0, h, H, M):
    t0 = time.perf_counter()
    rho = rho0
    theta_history = []
    inner_iterations = []
    mass_errors = []
    termination = "max-outer"
    u_warm = None
    for _ in range(optimizer.MAX_OUTER):
        eig = principal_pair(op, rho, u0=u_warm)
        theta_history.append(eig.theta)
        inner_iterations.append(eig.iterations)
        mass_errors.append(abs(mass(rho) - M))
        u_warm = eig.u

        rho_new, t = optimal_density(eig.u, h, H, M)
        if np.array_equal(rho_new.values, rho.values):
            termination = "rho-fixed"
            rho = rho_new
            break
        rho = rho_new
        if len(theta_history) >= 2 and abs(
            theta_history[-1] - theta_history[-2]
        ) <= optimizer.THETA_TOL * abs(theta_history[-1]):
            termination = "theta-converged"
            break

    theta = _quotient(eig.u.values, eig.v.values, rho.values, rho.grid)
    pair = OptimalPair(u=eig.u, v=eig.v, rho=rho, theta=theta, t=t)
    report = SolveReport(
        theta_history=tuple(theta_history),
        inner_iterations=tuple(inner_iterations),
        mass_errors=tuple(mass_errors),
        termination=termination,
        outer_iterations=len(theta_history),
        wall_time=time.perf_counter() - t0,
        restart_thetas=(),
    )
    return pair, report


def _radial_loop(kind, radii, h, H, M, n_r=1024):
    """Reference: ``radial_optimize`` with its own alternation loop,
    verbatim but for the eigensolve's iteration count, which it drops, the
    bathtub, now the one both paths share, its record, now a pair of
    fields on the ring grid, its stop, now the optimizer's constants, and
    its normalization, now on the density of the last eigensolve."""
    grid = radial_grid(kind, radii, n_r)
    area = grid.discrete_area
    try:
        _check_bracket(area, h, H, M)
    except RearrangeError as exc:
        raise exc from None
    ab = _radial_operator(grid)
    rho = np.full(grid.n, M / area)
    history = []
    termination = "max-outer"
    u_warm = None
    for _ in range(optimizer.MAX_OUTER):
        theta, _, u, v = _principal_pair_radial(
            grid, ab, rho, DEFAULT_TOL, DEFAULT_MAX_ITER, u0=u_warm
        )
        history.append(theta)
        u_warm = u
        solved = rho
        rho_new, t_level = _bathtub(u, grid.weights, h, H, M)
        if np.array_equal(rho_new, rho):
            termination = "rho-fixed"
            rho = rho_new
            break
        rho = rho_new
        if len(history) >= 2 and abs(history[-1] - history[-2]) <= optimizer.THETA_TOL * abs(
            history[-1]
        ):
            termination = "theta-converged"
            break

    # unit weighted norm on the density of the last eigensolve, matching the 2-D convention
    c = math.sqrt(float(np.sum(solved * u * u * grid.weights)))
    u = u / c
    v = v / c
    t_level = t_level / c
    theta = float(np.sum(v * v * grid.weights) / np.sum(rho * u * u * grid.weights))
    return RadialResult(
        u=ScalarField(grid, u),
        v=ScalarField(grid, v),
        rho=pl.DensityField(grid, rho, h, H, M),
        theta=theta,
        t=t_level,
        termination=termination,
        outer_iterations=len(history),
        theta_history=tuple(history),
    )


# Reference: the radial path's own power loop, verbatim, before both
# paths ran ``eigensolver._principal``.
def _principal_pair_radial(grid, ab, rho, tol, max_iter, u0=None):
    u = np.ones(grid.n) if u0 is None else u0 / np.max(np.abs(u0))
    w = grid.weights
    theta_prev = None
    for it in range(1, max_iter + 1):
        v = solve_banded((1, 1), ab, rho * u)
        uu = solve_banded((1, 1), ab, v)
        if np.any(uu <= 0.0):
            raise EigenError("radial iterate lost positivity")
        scale = np.max(np.abs(uu))
        u = uu / scale
        vs = v / scale
        theta = float(np.sum(vs * vs * w) / np.sum(rho * u * u * w))
        if theta_prev is not None and abs(theta - theta_prev) <= tol * theta:
            break
        theta_prev = theta
    else:
        raise EigenError("radial eigensolve did not converge in %d iterations" % max_iter)
    return theta, it, u, vs


def _record(obj, skip=("wall_time",)):
    """A record's fields as exact, comparable values: floats as ``repr``,
    arrays as dtype and bytes, fields (``u``, ``v``, ``rho``) as their nodes'."""

    def exact(value):
        value = getattr(value, "values", value)
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, tuple):
            return tuple(exact(x) for x in value)
        return repr(value)

    return {f.name: exact(getattr(obj, f.name)) for f in fields(obj) if f.name not in skip}


@pytest.mark.parametrize("spec, grid, mass, starts, stop, theta, termination, outer, inner",
                         OPTIMIZE_ROWS, ids=OPTIMIZE_IDS)
def test_optimize_matches_verbatim_loop(spec, grid, mass, starts, stop, theta, termination, outer,
                                        inner, monkeypatch):
    _patch_stop(monkeypatch, stop)
    pair, report = pl.optimize(spec, grid, 1.0, 2.0, mass, **starts)
    want_pair, want_report = _optimize_loop(spec, grid, 1.0, 2.0, mass, **starts)
    assert _record(pair) == _record(want_pair)
    assert _record(report) == _record(want_report)
    assert report.termination == termination


@pytest.mark.parametrize("kind, radii, mass, n_r, stop, theta, termination, outer",
                         RADIAL_ROWS, ids=RADIAL_IDS)
def test_radial_matches_verbatim_loop(kind, radii, mass, n_r, stop, theta, termination, outer,
                                      monkeypatch):
    _patch_stop(monkeypatch, stop)
    res = pl.radial_optimize(kind, radii, 1.0, 2.0, mass, n_r=n_r)
    want = _radial_loop(kind, radii, 1.0, 2.0, mass, n_r=n_r)
    assert _record(res) == _record(want)
    assert res.termination == termination


# ---------------------------------------------------------------------------
# ``plate-lab verify`` transcripts: the exit code and stdout of every check
# on the default solves (h = 1, H = 2, mass 1.5 times the domain's area)
# and on planted faults. A change to the checks' code that moves one byte
# here has changed a verdict or a reported number and must say why.

# solve id -> (domain flags, grid, mass)
VERIFY_SOLVES = {
    "disk-257": (["--domain", "disk"], 257, 1.5 * math.pi),
    "ellipse-129": (["--domain", "ellipse"], 129, 1.5 * pl.ellipse().area()),
    "stadium-129": (["--domain", "stadium"], 129, 1.5 * pl.stadium().area()),
    "square-129": (["--domain", "square"], 129, 1.5),
    "rectangle-129": (["--domain", "rectangle", "--width", "1", "--height", "0.5"], 129, 0.75),
    "annulus-0.3-97": (["--domain", "annulus", "--inner", "0.3"], 97,
                       1.5 * pl.annulus(0.3).area()),
    # no plane window in either direction; 9 nodes of area 1/16 admit at most 1.125
    "square-5": (["--domain", "square"], 5, 0.84375),
    # a plane window across x only
    "rectangle-17": (["--domain", "rectangle", "--width", "1", "--height", "0.5"], 17, 0.6),
}


def _noisy(scale):
    """u scaled node by node by 1 + scale * U(-1, 1), seeded."""

    def fault(report, cols):
        rng = np.random.default_rng(24)
        cols[:, 2] *= 1.0 + scale * rng.uniform(-1.0, 1.0, cols.shape[0])
        return report, cols

    return fault


def _first_cap_node(report, cols):
    """The node beyond the first direction-0 plane, on the lattice line
    nearest the centre, that lies nearest the plane, and its reflected u:
    no other plane's cap holds it."""
    grid = pl.build_grid(DomainSpec.from_dict(report["domain"]), report["grid"])
    u = ScalarField(grid, cols[:, 2])
    pair = OptimalPair(u=u, v=u, rho=None, theta=1.0, t=report["t"])
    lam = pl.diagnostics.plane_positions(pair, 0)[0]  # the first plane at any count
    nodes, (ur,) = reflect_cap(grid, [u.values], 0, lam)
    k = np.lexsort((grid.node_x[nodes], np.abs(grid.node_y[nodes] - grid.spec.center[1])))[0]
    return nodes[k], ur[k]


def _tie_u(report, cols):
    """u raised at one cap node to 1e-9 max|u| above its reflection."""
    node, ur = _first_cap_node(report, cols)
    cols[node, 2] = ur + 1e-9 * np.max(np.abs(cols[:, 2]))
    return report, cols


def _straddle(report, cols):
    """u raised at one cap node to just above its reflection, and t at the
    reflection: the impossible case at one node."""
    node, ur = _first_cap_node(report, cols)
    cols[node, 2] = ur * (1.0 + 1e-12)
    return dict(report, t=ur), cols


def _shifted_t(report, cols):
    return dict(report, t=1.05 * report["t"]), cols


def _zero_u(report, cols):
    cols[:, 2] = 0.0
    return report, cols


# fault -> (report, fields columns) -> the same, edited
VERIFY_FAULTS = {
    "as-solved": lambda report, cols: (report, cols),
    # fails both plane checks, but on the annulus, whose caps have room for it
    "noisy-u": _noisy(1e-2),
    # relative deficit in (-1e-8, -1e-10): only product fails, on its precondition
    "tie-u": _tie_u,
    # the product check fails on a defect, not on its precondition
    "straddle": _straddle,
    "shifted-t": _shifted_t,
    "zero-u": _zero_u,
}

SOLVED = list(VERIFY_SOLVES)[:-2]  # the default solves, each with a window across x and y
VERIFY_CASES = (
    [(solve, "as-solved", n) for solve in SOLVED for n in (8, 16)]
    + [(solve, fault, 16) for fault in ("noisy-u", "tie-u", "straddle", "shifted-t")
       for solve in SOLVED]
    + [("disk-257", "zero-u", 16), ("ellipse-129", "zero-u", 16), ("square-5", "as-solved", 16),
       ("rectangle-17", "as-solved", 8), ("rectangle-17", "tie-u", 8)]
)


@pytest.fixture(scope="module")
def verify_solves(tmp_path_factory):
    """Solve id -> (report, fields columns) of its CLI solve, solved on
    first use."""
    from platelab import cli

    d = tmp_path_factory.mktemp("verify_golden")
    solved = {}

    def get(solve):
        if solve not in solved:
            flags, grid, mass_val = VERIFY_SOLVES[solve]
            report, fields = d / (solve + ".json"), d / (solve + ".csv")
            assert cli.main(["solve", *flags, "--h", "1", "--H", "2",
                             "--mass", "%.17g" % mass_val, "--grid", str(grid),
                             "--out", str(report), "--fields", str(fields)]) == 0
            solved[solve] = (json.loads(report.read_text()),
                             np.loadtxt(fields, delimiter=",", skiprows=1, ndmin=2))
        report, cols = solved[solve]
        return dict(report), cols.copy()

    return get


def verify_transcript(verify_solves, tmp_path, solve, fault, n_lambda):
    """(exit code, stdout) of ``plate-lab verify`` on one case, with
    ``n_lambda`` planes (``diagnostics.N_LAMBDAS`` patched)."""
    from platelab import cli

    report, cols = VERIFY_FAULTS[fault](*verify_solves(solve))
    report_path, fields_path = tmp_path / "report.json", tmp_path / "fields.csv"
    report_path.write_text(json.dumps(report))
    cli._write_fields_csv(fields_path, *cols.T)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(pl.diagnostics, "N_LAMBDAS", n_lambda)
        rc = cli.main(["verify", "--report", str(report_path), "--fields", str(fields_path)])
    return rc, out.getvalue()


@pytest.mark.parametrize("solve, fault, n_lambda", VERIFY_CASES,
                         ids=["%s-%s-%d" % case for case in VERIFY_CASES])
def test_verify_transcript_golden(verify_solves, tmp_path, solve, fault, n_lambda):
    got = verify_transcript(verify_solves, tmp_path, solve, fault, n_lambda)
    assert got == VERIFY_TRANSCRIPTS["%s-%s-%d" % (solve, fault, n_lambda)]


VERIFY_TRANSCRIPTS = {
    "disk-257-as-solved-8": (2, """\
FAIL symmetry: max relative asymmetry 8.873e-06 (tol 1e-06)
PASS monotonicity: max forward difference -3.818e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 2.842e-04 rel (tol -1e-08)
PASS product: worst product difference 2.408e-04, impossible-case nodes 0
PASS rigidity: normal derivative mean -0.9717, CV 1.827e-04 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "disk-257-as-solved-16": (2, """\
FAIL symmetry: max relative asymmetry 8.873e-06 (tol 1e-06)
PASS monotonicity: max forward difference -3.818e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 2.842e-04 rel (tol -1e-08)
PASS product: worst product difference 2.408e-04, impossible-case nodes 0
PASS rigidity: normal derivative mean -0.9717, CV 1.827e-04 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "ellipse-129-as-solved-8": (2, """\
FAIL symmetry: max relative asymmetry 2.286e-05 (tol 1e-06)
PASS monotonicity: max forward difference -1.796e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 5.843e-04 rel (tol -1e-08)
PASS product: worst product difference 6.841e-04, impossible-case nodes 0
FAIL rigidity: normal derivative mean -1.617, CV 3.599e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "ellipse-129-as-solved-16": (2, """\
FAIL symmetry: max relative asymmetry 2.286e-05 (tol 1e-06)
PASS monotonicity: max forward difference -1.796e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 1.056e-03 rel (tol -1e-08)
PASS product: worst product difference 1.234e-03, impossible-case nodes 0
FAIL rigidity: normal derivative mean -1.617, CV 3.599e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "stadium-129-as-solved-8": (2, """\
FAIL symmetry: max relative asymmetry 1.026e-04 (tol 1e-06)
PASS monotonicity: max forward difference -1.846e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 1.470e-04 rel (tol -1e-08)
PASS product: worst product difference 1.566e-04, impossible-case nodes 0
FAIL rigidity: normal derivative mean -1.948, CV 4.290e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "stadium-129-as-solved-16": (2, """\
FAIL symmetry: max relative asymmetry 1.026e-04 (tol 1e-06)
PASS monotonicity: max forward difference -1.846e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 1.470e-04 rel (tol -1e-08)
PASS product: worst product difference 1.566e-04, impossible-case nodes 0
FAIL rigidity: normal derivative mean -1.948, CV 4.290e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "square-129-as-solved-8": (2, """\
FAIL symmetry: max relative asymmetry 2.205e-05 (tol 1e-06)
PASS monotonicity: max forward difference -7.451e-06 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 5.973e-05 rel (tol -1e-08)
PASS product: worst product difference 8.606e-05, impossible-case nodes 0
FAIL rigidity: normal derivative mean -2.855, CV 4.857e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "square-129-as-solved-16": (2, """\
FAIL symmetry: max relative asymmetry 2.205e-05 (tol 1e-06)
PASS monotonicity: max forward difference -7.451e-06 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 5.973e-05 rel (tol -1e-08)
PASS product: worst product difference 8.606e-05, impossible-case nodes 0
FAIL rigidity: normal derivative mean -2.855, CV 4.857e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "rectangle-129-as-solved-8": (2, """\
FAIL symmetry: max relative asymmetry 6.426e-05 (tol 1e-06)
PASS monotonicity: max forward difference -1.560e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 1.240e-04 rel (tol -1e-08)
PASS product: worst product difference 2.535e-04, impossible-case nodes 0
FAIL rigidity: normal derivative mean -6.807, CV 5.764e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "rectangle-129-as-solved-16": (2, """\
FAIL symmetry: max relative asymmetry 6.426e-05 (tol 1e-06)
PASS monotonicity: max forward difference -1.560e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 5.082e-05 rel (tol -1e-08)
PASS product: worst product difference 1.092e-04, impossible-case nodes 0
FAIL rigidity: normal derivative mean -6.807, CV 5.764e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "annulus-0.3-97-as-solved-8": (2, """\
FAIL symmetry: max relative asymmetry 1.076e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.256e-01 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 1.467e-02 rel (tol -1e-08)
PASS product: worst product difference 1.014e-02, impossible-case nodes 0
FAIL rigidity: normal derivative mean -2.656, CV 3.100e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "annulus-0.3-97-as-solved-16": (2, """\
FAIL symmetry: max relative asymmetry 1.076e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.256e-01 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 7.517e-03 rel (tol -1e-08)
PASS product: worst product difference 6.303e-03, impossible-case nodes 0
FAIL rigidity: normal derivative mean -2.656, CV 3.100e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "disk-257-noisy-u-16": (2, """\
FAIL symmetry: max relative asymmetry 1.889e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.819e-02 rel (tol 1e-10)
FAIL moving-plane: min reflected deficit -1.784e-02 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
PASS rigidity: normal derivative mean -0.9706, CV 8.324e-03 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "ellipse-129-noisy-u-16": (2, """\
FAIL symmetry: max relative asymmetry 1.893e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.621e-02 rel (tol 1e-10)
FAIL moving-plane: min reflected deficit -1.254e-02 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -1.619, CV 3.599e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "stadium-129-noisy-u-16": (2, """\
FAIL symmetry: max relative asymmetry 1.865e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.710e-02 rel (tol 1e-10)
FAIL moving-plane: min reflected deficit -9.829e-03 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -1.948, CV 4.288e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "square-129-noisy-u-16": (2, """\
FAIL symmetry: max relative asymmetry 1.831e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.641e-02 rel (tol 1e-10)
FAIL moving-plane: min reflected deficit -1.262e-02 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -2.859, CV 4.863e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "rectangle-129-noisy-u-16": (2, """\
FAIL symmetry: max relative asymmetry 1.951e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.819e-02 rel (tol 1e-10)
FAIL moving-plane: min reflected deficit -8.984e-03 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -6.841, CV 5.784e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "annulus-0.3-97-noisy-u-16": (2, """\
FAIL symmetry: max relative asymmetry 2.621e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.253e-01 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 4.718e-03 rel (tol -1e-08)
PASS product: worst product difference 5.407e-03, impossible-case nodes 0
FAIL rigidity: normal derivative mean -2.655, CV 3.087e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "disk-257-tie-u-16": (2, """\
FAIL symmetry: max relative asymmetry 7.142e-04 (tol 1e-06)
FAIL monotonicity: max forward difference 2.681e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -1.000e-09 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
PASS rigidity: normal derivative mean -0.9717, CV 1.827e-04 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "ellipse-129-tie-u-16": (2, """\
FAIL symmetry: max relative asymmetry 3.551e-03 (tol 1e-06)
FAIL monotonicity: max forward difference 1.334e-03 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -1.000e-09 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -1.617, CV 3.599e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "stadium-129-tie-u-16": (2, """\
FAIL symmetry: max relative asymmetry 2.913e-03 (tol 1e-06)
FAIL monotonicity: max forward difference 1.098e-03 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -1.000e-09 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -1.948, CV 4.290e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "square-129-tie-u-16": (2, """\
FAIL symmetry: max relative asymmetry 2.429e-03 (tol 1e-06)
FAIL monotonicity: max forward difference 9.119e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -1.000e-09 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -2.855, CV 4.857e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "rectangle-129-tie-u-16": (2, """\
FAIL symmetry: max relative asymmetry 2.497e-03 (tol 1e-06)
FAIL monotonicity: max forward difference 9.411e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -1.000e-09 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -6.807, CV 5.764e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "annulus-0.3-97-tie-u-16": (2, """\
FAIL symmetry: max relative asymmetry 4.004e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.256e-01 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -1.000e-09 rel (tol -1e-08)
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: normal derivative mean -2.656, CV 3.100e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "disk-257-straddle-16": (2, """\
FAIL symmetry: max relative asymmetry 7.142e-04 (tol 1e-06)
FAIL monotonicity: max forward difference 2.681e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -1.000e-12 rel (tol -1e-08)
FAIL product: defect -7.885e-01 at node 25717
PASS rigidity: normal derivative mean -0.9717, CV 1.827e-04 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "ellipse-129-straddle-16": (2, """\
FAIL symmetry: max relative asymmetry 3.551e-03 (tol 1e-06)
FAIL monotonicity: max forward difference 1.334e-03 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -9.997e-13 rel (tol -1e-08)
FAIL product: defect -1.038e+00 at node 3860
FAIL rigidity: normal derivative mean -1.617, CV 3.599e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "stadium-129-straddle-16": (2, """\
FAIL symmetry: max relative asymmetry 2.913e-03 (tol 1e-06)
FAIL monotonicity: max forward difference 1.098e-03 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -9.997e-13 rel (tol -1e-08)
FAIL product: defect -1.065e+00 at node 3621
FAIL rigidity: normal derivative mean -1.948, CV 4.290e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "square-129-straddle-16": (2, """\
FAIL symmetry: max relative asymmetry 2.429e-03 (tol 1e-06)
FAIL monotonicity: max forward difference 9.119e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -9.998e-13 rel (tol -1e-08)
FAIL product: defect -1.440e+00 at node 8067
FAIL rigidity: normal derivative mean -2.855, CV 4.857e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "rectangle-129-straddle-16": (2, """\
FAIL symmetry: max relative asymmetry 2.497e-03 (tol 1e-06)
FAIL monotonicity: max forward difference 9.411e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -9.998e-13 rel (tol -1e-08)
FAIL product: defect -2.043e+00 at node 4003
FAIL rigidity: normal derivative mean -6.807, CV 5.764e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "annulus-0.3-97-straddle-16": (2, """\
FAIL symmetry: max relative asymmetry 4.004e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.256e-01 rel (tol 1e-10)
PASS moving-plane: min reflected deficit -9.443e-13 rel (tol -1e-08)
FAIL product: defect -5.975e-01 at node 3295
FAIL rigidity: normal derivative mean -2.656, CV 3.100e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "disk-257-shifted-t-16": (2, """\
FAIL symmetry: max relative asymmetry 8.873e-06 (tol 1e-06)
PASS monotonicity: max forward difference -3.818e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 2.842e-04 rel (tol -1e-08)
PASS product: worst product difference 2.408e-04, impossible-case nodes 0
PASS rigidity: normal derivative mean -0.9717, CV 1.827e-04 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "ellipse-129-shifted-t-16": (2, """\
FAIL symmetry: max relative asymmetry 2.286e-05 (tol 1e-06)
PASS monotonicity: max forward difference -1.796e-04 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 1.056e-03 rel (tol -1e-08)
PASS product: worst product difference 1.234e-03, impossible-case nodes 0
FAIL rigidity: normal derivative mean -1.617, CV 3.599e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "stadium-129-shifted-t-16": (2, """\
FAIL symmetry: max relative asymmetry 1.026e-04 (tol 1e-06)
PASS monotonicity: max forward difference -1.846e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 1.470e-04 rel (tol -1e-08)
PASS product: worst product difference 1.566e-04, impossible-case nodes 0
FAIL rigidity: normal derivative mean -1.948, CV 4.290e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "square-129-shifted-t-16": (2, """\
FAIL symmetry: max relative asymmetry 2.205e-05 (tol 1e-06)
PASS monotonicity: max forward difference -7.451e-06 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 5.973e-05 rel (tol -1e-08)
PASS product: worst product difference 8.606e-05, impossible-case nodes 0
FAIL rigidity: normal derivative mean -2.855, CV 4.857e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "rectangle-129-shifted-t-16": (2, """\
FAIL symmetry: max relative asymmetry 6.426e-05 (tol 1e-06)
PASS monotonicity: max forward difference -1.560e-05 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 5.082e-05 rel (tol -1e-08)
PASS product: worst product difference 1.092e-04, impossible-case nodes 0
FAIL rigidity: normal derivative mean -6.807, CV 5.764e-01 (ball-consistent iff CV < 0.01)
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "annulus-0.3-97-shifted-t-16": (2, """\
FAIL symmetry: max relative asymmetry 1.076e-02 (tol 1e-06)
FAIL monotonicity: max forward difference 1.256e-01 rel (tol 1e-10)
PASS moving-plane: min reflected deficit 7.517e-03 rel (tol -1e-08)
PASS product: worst product difference 6.303e-03, impossible-case nodes 0
FAIL rigidity: normal derivative mean -2.656, CV 3.100e-01 (ball-consistent iff CV < 0.01)
FAIL structure: tubular=True axis_convex=False positive=True
"""),
    "disk-257-zero-u-16": (2, """\
FAIL symmetry: u vanishes identically
FAIL monotonicity: u vanishes identically
FAIL moving-plane: u vanishes identically
FAIL product: u vanishes identically
FAIL rigidity: the normal derivative of u vanishes identically
FAIL structure: tubular=True axis_convex=True positive=False
"""),
    "ellipse-129-zero-u-16": (2, """\
FAIL symmetry: u vanishes identically
FAIL monotonicity: u vanishes identically
FAIL moving-plane: u vanishes identically
FAIL product: u vanishes identically
FAIL rigidity: the normal derivative of u vanishes identically
FAIL structure: tubular=True axis_convex=True positive=False
"""),
    "square-5-as-solved-16": (2, """\
FAIL symmetry: max relative asymmetry 3.045e-02 (tol 1e-06)
PASS monotonicity: max forward difference -2.065e-01 rel (tol 1e-10)
FAIL moving-plane: empty plane window: [1, 0.5]
FAIL product: empty plane window: [1, 0.5]
FAIL rigidity: 64 of 64 boundary samples lack interior support
FAIL structure: tubular=False axis_convex=True positive=True
"""),
    "rectangle-17-as-solved-8": (2, """\
FAIL symmetry: max relative asymmetry 3.141e-03 (tol 1e-06)
PASS monotonicity: max forward difference -7.608e-03 rel (tol 1e-10)
FAIL moving-plane: empty plane window: [0.125, 0.125]
FAIL product: empty plane window: [0.125, 0.125]
FAIL rigidity: 10 of 64 boundary samples lack interior support
PASS structure: tubular=True axis_convex=True positive=True
"""),
    "rectangle-17-tie-u-8": (2, """\
FAIL symmetry: max relative asymmetry 1.612e-01 (tol 1e-06)
FAIL monotonicity: max forward difference 6.066e-02 rel (tol 1e-10)
FAIL moving-plane: empty plane window: [0.125, 0.125]
FAIL product: precondition failed: reflected u does not dominate u on the cap
FAIL rigidity: 10 of 64 boundary samples lack interior support
PASS structure: tubular=True axis_convex=True positive=True
"""),
}

"""Golden values that guard refactors of the solver pipeline.

The three small jobs the benchmark runs at set-up (``platebench/jobs.py``,
``SMALL``): the disk at grid 33, the unit square at grid 33, and the
annulus of inner radius 0.12 at grid 41 with two starts seeded as
``plate-lab sweep-annulus --seed 0`` seeds its first row, plus the radial
solver on that annulus at 128 cells. One more row, the thin annulus of
inner radius 0.85 at grid 49 seeded the same way, is one whose
eigensolves hand off from power iteration to the Krylov solve. The
remaining rows end on the other two terminations, ``theta-converged``
and ``max-outer``, on both paths. A change that moves theta by more
than 1e-12 relative, or changes the termination, the outer-iteration
count or the eigen-iteration count of an outer step, has changed the
numerics and must say why.

Both paths run one alternation driver. Verbatim copies of the two loops
it replaced are kept below, and every row is compared with them bitwise.
"""

import math
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import platelab as pl
from platelab.eigensolver import DEFAULT_MAX_ITER, principal_pair, rayleigh_quotient
from platelab.fields import ScalarField
from platelab.optimizer import OptimalPair, OptimizeOptions, SolveReport
from platelab.radial import (
    RadialError,
    RadialResult,
    _principal_pair_radial,
    _radial_operator,
    radial_grid,
)
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
HALF = 0.5
HALF_MASS = 1.5 * math.pi * (1.0 - HALF * HALF)
ANNULUS_OPTS = OptimizeOptions(
    restarts=2, seed=int(np.random.SeedSequence((0, 0)).generate_state(1)[0])
)

# spec, grid, mass, opts, theta, termination, outer steps, inner iterations
OPTIMIZE_ROWS = [
    (pl.disk(), 33, math.pi * 1.5, OptimizeOptions(), 17.362154323634442, "rho-fixed", 2,
     (7, 5)),
    (pl.unit_square(), 33, 1.5, OptimizeOptions(), 198.77662708938155, "rho-fixed", 2, (6, 4)),
    (pl.annulus(INNER, 1.0), 41, ANNULUS_MASS, ANNULUS_OPTS, 72.47523531018791, "rho-fixed", 3,
     (7, 10, 7)),
    (pl.annulus(THIN, 1.0), 49, THIN_MASS, ANNULUS_OPTS, 91332.31020743366, "rho-fixed", 5,
     (41, 38, 35, 35, 34)),
    (pl.annulus(HALF, 1.0), 33, HALF_MASS, OptimizeOptions(theta_tol=1e-2), 815.5708286669584,
     "theta-converged", 3, (12, 15, 16)),
    (pl.annulus(THIN, 1.0), 49, THIN_MASS, OptimizeOptions(max_outer=2), 93763.84817811314,
     "max-outer", 2, (15, 75)),
]
OPTIMIZE_IDS = ["disk-33", "square-33", "annulus-0.12-41", "annulus-0.85-49",
                "annulus-0.5-33-theta-converged", "annulus-0.85-49-max-outer"]

# kind, radii, mass, n_r, opts, theta, termination, outer steps
RADIAL_ROWS = [
    ("annulus", (INNER, 1.0), ANNULUS_MASS, 128, ANNULUS_OPTS, 72.87768318344891, "rho-fixed", 3),
    ("annulus", (HALF, 1.0), HALF_MASS, 256, OptimizeOptions(theta_tol=0.5), 832.8204628735149,
     "theta-converged", 2),
    ("disk", (1.0,), 1.5 * math.pi, 512, OptimizeOptions(max_outer=1), 17.474556984244632,
     "max-outer", 1),
]
RADIAL_IDS = ["annulus-0.12-128", "annulus-0.5-256-theta-converged", "disk-512-max-outer"]


@pytest.mark.parametrize("spec, grid, mass, opts, theta, termination, outer, inner",
                         OPTIMIZE_ROWS, ids=OPTIMIZE_IDS)
def test_optimize_golden(spec, grid, mass, opts, theta, termination, outer, inner):
    pair, report = pl.optimize(spec, grid, 1.0, 2.0, mass, opts=opts)
    assert pair.theta == pytest.approx(theta, rel=REL, abs=0.0)
    assert report.termination == termination
    assert report.outer_iterations == outer
    assert report.inner_iterations == inner


def test_radial_golden():
    res = pl.radial_optimize("annulus", (INNER, 1.0), 1.0, 2.0, ANNULUS_MASS, n_r=128,
                             opts=ANNULUS_OPTS)
    assert res.theta == pytest.approx(72.87768318344891, rel=REL, abs=0.0)
    assert res.termination == "rho-fixed"
    assert res.outer_iterations == 3


@pytest.mark.parametrize("kind, radii, mass, n_r, opts, theta, termination, outer",
                         RADIAL_ROWS[1:], ids=RADIAL_IDS[1:])
def test_radial_golden_terminations(kind, radii, mass, n_r, opts, theta, termination, outer):
    res = pl.radial_optimize(kind, radii, 1.0, 2.0, mass, n_r=n_r, opts=opts)
    assert res.theta == pytest.approx(theta, rel=REL, abs=0.0)
    assert res.termination == termination
    assert res.outer_iterations == outer


def _optimize_loop(spec, nodes_per_side, h, H, M, opts=OptimizeOptions()):
    """Reference: ``optimize`` and its own alternation loop, verbatim."""
    grid = pl.build_grid(spec, nodes_per_side)
    op = pl.assemble_laplacian(grid)

    starts = [uniform_density(grid, h, H, M)]
    if opts.restarts > 1:
        rng = np.random.default_rng(opts.seed)
        for _ in range(opts.restarts - 1):
            probe = ScalarField(grid, rng.uniform(0.5, 1.5, grid.n))
            starts.append(optimal_density(probe, h, H, M).rho)

    best = None
    thetas = []
    for rho0 in starts:
        pair, report = _alternate_loop(op, rho0, h, H, M, opts)
        thetas.append(pair.theta)
        if best is None or pair.theta < best[0].theta:
            best = (pair, report)
    pair, report = best
    return pair, replace(report, restart_thetas=tuple(thetas))


def _alternate_loop(op, rho0, h, H, M, opts):
    t0 = time.perf_counter()
    rho = rho0
    theta_history = []
    inner_iterations = []
    mass_errors = []
    termination = "max-outer"
    u_warm = None
    for _ in range(opts.max_outer):
        eig = principal_pair(op, rho, tol=opts.eig_tol, u0=u_warm)
        theta_history.append(eig.theta)
        inner_iterations.append(eig.iterations)
        mass_errors.append(abs(mass(rho) - M))
        u_warm = eig.u

        thr = optimal_density(eig.u, h, H, M)
        if np.array_equal(thr.rho.values, rho.values):
            termination = "rho-fixed"
            rho = thr.rho
            break
        rho = thr.rho
        if len(theta_history) >= 2 and abs(
            theta_history[-1] - theta_history[-2]
        ) <= opts.theta_tol * abs(theta_history[-1]):
            termination = "theta-converged"
            break

    theta = rayleigh_quotient(eig.u, eig.v, rho)
    pair = OptimalPair(u=eig.u, v=eig.v, rho=rho, theta=theta, t=thr.t)
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


def _radial_loop(kind, radii, h, H, M, n_r=1024, opts=OptimizeOptions()):
    """Reference: ``radial_optimize`` with its own alternation loop,
    verbatim but for the eigensolve's iteration count, which it drops, and
    the bathtub, now the one both paths share."""
    grid = radial_grid(kind, radii, n_r)
    area = grid.discrete_area
    try:
        _check_bracket(area, h, H, M)
    except RearrangeError as exc:
        raise RadialError(str(exc)) from None
    ab = _radial_operator(grid)
    rho = np.full(grid.n, M / area)
    history = []
    termination = "max-outer"
    u_warm = None
    for _ in range(opts.max_outer):
        theta, _, u, v = _principal_pair_radial(
            grid, ab, rho, opts.eig_tol, DEFAULT_MAX_ITER, u0=u_warm
        )
        history.append(theta)
        u_warm = u
        rho_new, t_level = _bathtub(u, grid.weights, h, H, M)
        if np.array_equal(rho_new, rho):
            termination = "rho-fixed"
            rho = rho_new
            break
        rho = rho_new
        if len(history) >= 2 and abs(history[-1] - history[-2]) <= opts.theta_tol * abs(
            history[-1]
        ):
            termination = "theta-converged"
            break

    # unit weighted norm, matching the 2-D convention
    c = math.sqrt(float(np.sum(rho * u * u * grid.weights)))
    u = u / c
    v = v / c
    t_level = t_level / c
    theta = float(np.sum(v * v * grid.weights) / np.sum(rho * u * u * grid.weights))
    return RadialResult(
        theta=theta,
        r=grid.r,
        u=u,
        v=v,
        rho=rho,
        t=t_level,
        theta_history=tuple(history),
        termination=termination,
        outer_iterations=len(history),
    )


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


@pytest.mark.parametrize("spec, grid, mass, opts, theta, termination, outer, inner",
                         OPTIMIZE_ROWS, ids=OPTIMIZE_IDS)
def test_optimize_matches_verbatim_loop(spec, grid, mass, opts, theta, termination, outer,
                                        inner):
    pair, report = pl.optimize(spec, grid, 1.0, 2.0, mass, opts=opts)
    want_pair, want_report = _optimize_loop(spec, grid, 1.0, 2.0, mass, opts=opts)
    assert _record(pair) == _record(want_pair)
    assert _record(report) == _record(want_report)
    assert report.termination == termination


@pytest.mark.parametrize("kind, radii, mass, n_r, opts, theta, termination, outer",
                         RADIAL_ROWS, ids=RADIAL_IDS)
def test_radial_matches_verbatim_loop(kind, radii, mass, n_r, opts, theta, termination, outer):
    res = pl.radial_optimize(kind, radii, 1.0, 2.0, mass, n_r=n_r, opts=opts)
    want = _radial_loop(kind, radii, 1.0, 2.0, mass, n_r=n_r, opts=opts)
    assert _record(res) == _record(want)
    assert res.termination == termination
